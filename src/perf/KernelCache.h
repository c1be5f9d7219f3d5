//===- perf/KernelCache.h - Persistent compiled-kernel cache ----*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, content-addressed on-disk cache of compiled kernel shared
/// objects. Every native plan otherwise pays a run of the system C
/// compiler plus dlopen; FFTW-style systems amortize exactly that cost by
/// keeping compiled artifacts around. A warm process (or a restarted spld
/// daemon) maps a previously compiled kernel in microseconds with zero
/// compiler invocations.
///
/// The cache key is an FNV-1a hash over everything that can change the
/// produced machine code: a host fingerprint, the compiler identity
/// (SPL_CC command plus its --version line), the extra compiler flags, the
/// kernel entry-point name, and the hash of the emitted C source. The
/// on-disk layout is one directory holding `<key>.so` artifacts plus an
/// `index`, a record file (docs/ARCHITECTURE.md § Record files) whose
/// `kernel` records carry each artifact's checksum and size: corrupt lines
/// are skipped, counted, and rewritten clean; artifacts that fail their
/// recorded checksum are dropped and recompiled — corruption degrades to a
/// recompile, never to a wrong kernel. Population is serialized per key
/// through a `<key>.lock` flock, so concurrent planners — or a busy spld —
/// never double-compile the same kernel. Eviction is LRU by artifact mtime
/// (refreshed on every hit), bounded by a configurable byte budget.
///
/// The same index holds `plan` records. Each maps a *plan key* — the
/// winner's formula text and everything else a plan's kernel depends on,
/// known before lowering, including the GNU build-id of the object holding
/// libspl — to the C-source-keyed artifact, a checksummed tables artifact
/// `<plan-key>.tables`, and for rule-planned specs the evaluator cost. A
/// planner that hits one loads the kernel without lowering, optimizing or
/// rendering the formula. Artifacts stay shared by every build; plan
/// records are per build. Every probe, insert and removal takes the one
/// `index.lock`, and both artifact kinds are checked by one checksum.
///
/// The full contract — key derivation, layout, invalidation, locking, the
/// flag/env reference, and a worked cold-vs-warm example — is documented in
/// docs/KERNEL_CACHE.md. Telemetry: kernelcache.hits / misses / inserts /
/// evictions / corrupt_entries counters and a kernelcache.probe_ns
/// histogram (docs/OBSERVABILITY.md).
///
/// The cache is disabled unless configured: set SPL_KERNEL_CACHE=<dir> in
/// the environment, pass --kernel-cache <dir> to splc/splrun/spld, or call
/// configure(). Configuration is process-wide (one compiler, one cache).
///
//===----------------------------------------------------------------------===//

#ifndef SPL_PERF_KERNELCACHE_H
#define SPL_PERF_KERNELCACHE_H

#include "support/FileLock.h"

#include <complex>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace spl {
namespace perf {

/// Process-wide access to the persistent kernel cache. All methods are
/// thread-safe; cross-process coordination is flock-based.
class KernelCache {
public:
  struct Config {
    bool Enabled = false;    ///< Off unless configured (env or flags).
    std::string Dir;         ///< Cache directory; empty -> defaultDir().
    std::uint64_t MaxBytes = 256ull << 20; ///< LRU eviction bound.
  };

  /// The current configuration. First call resolves the environment:
  /// SPL_KERNEL_CACHE=<dir> enables the cache there ("", "0", "off",
  /// "none" keep it disabled); SPL_KERNEL_CACHE_MB overrides the byte
  /// budget.
  static Config config();

  /// Replaces the process-wide configuration (tools and tests).
  static void configure(const Config &C);

  /// Enables the cache at \p Dir (empty: defaultDir()).
  static void setDirectory(const std::string &Dir);

  /// Force-disables (or re-enables at the configured directory).
  static void setEnabled(bool On);

  static bool enabled() { return config().Enabled; }

  /// $HOME/.spl_kernel_cache, else ".spl_kernel_cache" (mirrors the wisdom
  /// default-path rule).
  static std::string defaultDir();

  /// Derives the content-addressed key (16 hex digits) for one compile
  /// request. Deterministic across processes on the same host+compiler.
  /// Scalar and vector kernels of one formula differ in their source (the
  /// vector typedef carries the ISA's width), so they never collide.
  static std::string key(const std::string &CSource,
                         const std::string &FnName,
                         const std::string &ExtraFlags);

  /// Looks up \p Key. On a hit the artifact's checksum has been verified
  /// against the index and its recency refreshed; the returned path is
  /// ready to dlopen. Misses, hits, and corrupt artifacts are counted.
  /// Returns nullopt when disabled, missing, or corrupt (corrupt entries
  /// are dropped so the caller's recompile can repopulate them).
  static std::optional<std::string> probe(const std::string &Key);

  /// Copies the compiled object at \p SoPath into the cache under \p Key,
  /// rewrites the index (dropping corrupt lines and orphaned artifacts),
  /// and evicts least-recently-used entries past the byte budget. Returns
  /// the cached artifact path, or nullopt when disabled or the cache
  /// directory is unusable (the caller keeps using its own copy — an
  /// unusable cache degrades to cold compiles, never to failure).
  static std::optional<std::string> insert(const std::string &Key,
                                           const std::string &SoPath);

  /// Drops \p Key's index entry and artifact (used when a checksum-valid
  /// artifact still fails to dlopen — e.g. an alien or truncated file).
  static void remove(const std::string &Key);

  /// What a plan's kernel depends on, all known before its program is
  /// lowered. Every field is one line of the plan key.
  struct PlanKeyInputs {
    std::string FormulaText;         ///< The winner, Formula::print().
    std::string SubName;             ///< The kernel's entry point.
    std::string Datatype;            ///< The kernel's "complex" | "real".
    std::int64_t UnrollThreshold = 0; ///< The -B threshold.
    std::string Evaluator;           ///< The cost model of a stored cost.
    std::string Variant;             ///< codegen::variantName().
    std::string ISA;                 ///< isaName(codegen::detectISA()).
    std::string Flags;               ///< Compiler flags, ISA flags included.
    std::string Compiler;            ///< NativeModule::compilerIdentity().
    std::string Host;                ///< HostInfo::fingerprint().
    std::string BuildId;             ///< buildId().
  };

  /// The plan key (16 hex digits) of \p In; "" when In.BuildId is empty,
  /// which turns the plan-record fast path off.
  static std::string planKey(const PlanKeyInputs &In);

  /// The GNU build-id (hex) of the object that holds libspl, read once per
  /// process from its loaded program headers; "" when it has none.
  static const std::string &buildId();

  /// A verified plan record: the artifact is checksum-valid and its recency
  /// refreshed, and the tables passed their recorded checksum.
  struct PlanRecord {
    std::string SoKey;          ///< The artifact's key().
    std::string SoPath;         ///< Ready to dlopen.
    std::string Tables;         ///< The kernel's tablesBlob(), as verified.
    UniqueFd TablesFd;          ///< The open `.tables` file they came from.
    std::optional<double> Cost; ///< Rule-planned specs only.
  };

  /// Looks up \p PlanKey. A hit counts in kernelcache.hits. A record whose
  /// artifact or tables fail verification counts in
  /// kernelcache.corrupt_entries and is dropped, so the caller's full path
  /// rewrites it. A missing record counts nothing: the caller's compile
  /// probes the artifact next.
  static std::optional<PlanRecord> probePlan(const std::string &PlanKey);

  /// Records that \p PlanKey's kernel is the cached artifact \p SoKey with
  /// the tablesBlob() \p Tables (and \p Cost). Sweeps and evicts like
  /// insert(). A no-op when disabled or when \p SoKey is not in the index.
  static void insertPlan(const std::string &PlanKey, const std::string &SoKey,
                         const std::string &Tables, std::optional<double> Cost);

  /// A kernel's tables in the one form they keep from the kernel that binds
  /// them to the `.tables` artifact and the trial child that maps them: the
  /// magic `spltab01`, a u64 table count, then per table a u64 length and
  /// that many doubles (the real parts of \p Tables; a lowered program's
  /// tables are real), all in host byte order.
  static std::string
  tablesBlob(const std::vector<std::vector<std::complex<double>>> &Tables);

  /// The first double of each table in \p Blob, or nullopt unless \p Blob
  /// is exactly one tablesBlob(). The pointers point into \p Blob.
  static std::optional<std::vector<const double *>>
  tablePointers(const std::string &Blob);

  /// The population lock file of one key, `<dir>/<key>.lock`, after
  /// creating the cache directory ("" when the cache is disabled). An
  /// exclusive FileLock on it across the re-probe + compile + insert
  /// window makes concurrent planners (threads or processes) compile each
  /// kernel at most once. Best-effort: if the lock file cannot be created
  /// the caller proceeds unlocked (worst case a duplicate compile, exactly
  /// the uncached behavior).
  static std::string populationLockPath(const std::string &Key);
};

} // namespace perf
} // namespace spl

#endif // SPL_PERF_KERNELCACHE_H
