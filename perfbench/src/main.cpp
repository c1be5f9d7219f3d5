//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload plan|execute|spld --seed N --seconds S --trace 0|1
//           --workdir DIR
//
// Runs one workload in DIR (a private scratch directory) and prints report
// lines ("# ...") followed by one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every op succeeded, 1 on any failed op, 2 on usage.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/VectorISA.h"
#include "perf/NativeCompile.h"
#include "support/HostInfo.h"
#include "telemetry/Metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

#include <unistd.h>

extern char **environ;

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::cerr << "perfbench: " << Why
            << "\nusage: perfbench --workload plan|execute|spld --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n";
  return 2;
}

/// Removes every SPL_* variable, so no stray wisdom, kernel cache, fault
/// site, ISA override or metrics sink leaks into the run.
void scrubEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SPL_", 4) == 0)
      Names.emplace_back(*E, std::strchr(*E, '=') - *E);
  for (const std::string &N : Names)
    unsetenv(N.c_str());
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("option '" + A + "' needs a value").c_str());
    const std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--workdir")
      O.WorkDir = V;
    else
      return usage(("unknown option '" + A + "'").c_str());
  }
  if (O.WorkDir.empty() || !(O.Seconds > 0))
    return usage("--workdir and a positive --seconds are required");
  void (*Run)(const Options &, Outcome &) = nullptr;
  if (O.Workload == "plan")
    Run = runPlanWorkload;
  else if (O.Workload == "execute")
    Run = runExecuteWorkload;
  else if (O.Workload == "spld")
    Run = runSpldWorkload;
  else
    return usage("unknown workload");

  scrubEnvironment();
  std::filesystem::create_directories(O.WorkDir);
  O.WorkDir = std::filesystem::canonical(O.WorkDir).string();
  if (chdir(O.WorkDir.c_str()) != 0)
    return usage("cannot enter --workdir");
  // Counters are read from the telemetry registry in traced runs only.
  spl::telemetry::setMetricsEnabled(O.Trace);

  // Process start: the one `cc --version` probe every process pays.
  const Clock::time_point T0 = Clock::now();
  const bool HaveCc = spl::perf::NativeModule::available();
  const double ProbeMs = msSince(T0);

  Outcome Out;
  Out.note("host: " + spl::HostInfo::detect().CpuModel + ", vector ISA " +
           spl::codegen::isaName(spl::codegen::detectISA()) + " (hardware " +
           spl::codegen::isaName(spl::codegen::hardwareISA()) + ")");
  Out.note("compiler: " + spl::perf::NativeModule::compilerIdentity() +
           " (probe " + std::to_string(ProbeMs) + " ms)");
  Out.note("workload " + O.Workload + ", seed " + std::to_string(O.Seed) +
           ", " + std::to_string(O.Seconds) + " s, trace " +
           (O.Trace ? "on" : "off"));
  if (!HaveCc) {
    std::cerr << "perfbench: no working C compiler; the native tier every "
                 "workload pins cannot be built\n";
    return 1;
  }

  Run(O, Out);

  for (const std::string &L : Out.notes())
    std::cout << "# " << L << "\n";
  const bool Correct = Out.failed() == 0 && Out.attempted() > 0;
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << Out.attempted()
            << ", \"failed\": " << Out.failed() << ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : Out.metrics()) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    std::cout << (First ? "" : ", ") << jsonString(M.Name)
              << ": {\"value\": " << Buf << ", \"unit\": " << jsonString(M.Unit)
              << "}";
    First = false;
  }
  std::cout << "}}" << std::endl;
  return Correct ? 0 : 1;
}
