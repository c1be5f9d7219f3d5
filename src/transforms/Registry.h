//===- transforms/Registry.h - Transform catalog ----------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transform registry: one catalog entry per servable transform kind
/// (fft, wht, rdft, dct2, dct3, dct4), each registering its dense-matrix
/// oracle, its generator-rule entry point, its natural and kernel
/// datatypes, its I/O layout, and its size rule. runtime::Planner, the
/// tools, and the service layer dispatch through this table instead of
/// hard-coding "fft" | "wht", so adding a transform here extends wisdom
/// keys, kernel-cache keys, the degradation chain, validateSpec
/// diagnostics, and the CLI flags in one place (see docs/WORKLOADS.md).
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TRANSFORMS_REGISTRY_H
#define SPL_TRANSFORMS_REGISTRY_H

#include "ir/Formula.h"
#include "ir/Matrix.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spl {
namespace transforms {

/// How the planner obtains a formula for a transform of this kind.
enum class Family {
  SearchedFFT,   ///< DP-searched Cooley-Tukey factorization.
  EnumeratedWHT, ///< Flat enumeration of WHT split trees.
  Recursive,     ///< Deterministic recursive rule (Rule builds the formula).
};

/// User-facing layout of one logical I/O vector of transform size N.
enum class Layout {
  Interleaved, ///< N complex points as 2N interleaved (re,im) doubles.
  Real,        ///< N real doubles in, N real doubles out.
  HalfComplex, ///< N real doubles in, N halfcomplex doubles out (FFTW
               ///< "r2hc": r_0, r_1, ..., r_{n/2}, i_{n/2-1}, ..., i_1).
};

/// One catalog entry. All strings are static; the table is immutable after
/// process start, so lookups need no locking.
struct TransformInfo {
  const char *Name;            ///< Spec token ("fft", "dct2", ...).
  const char *NaturalDatatype; ///< Datatype an empty spec field resolves to.
  const char *KernelDatatype;  ///< Datatype the searched formula is in:
                               ///< complex for rdft, whose F_{N/2} is
                               ///< searched before gen::ruleRDFT wraps it
                               ///< into a real formula; else == natural.
  const char *AllowedDatatypes; ///< Comma-joined accepted spec datatypes
                                ///< (wht kernels compile either way).
  Family PlanFamily;           ///< Planning strategy.
  Layout IOLayout;             ///< User-facing vector layout.
  bool SupportsND;             ///< Row-column N-D shapes allowed.
  const char *SizeRule;        ///< Human-readable size constraint.

  /// Valid size for one dimension. \p MaxLeaf is the search-leaf bound
  /// (only the fft consults it: non-powers-of-two plan as one dense leaf).
  bool (*ValidSize)(std::int64_t N, std::int64_t MaxLeaf);

  /// Dense user-facing oracle matrix for one dimension. Entrywise real for
  /// Real/HalfComplex layouts.
  Matrix (*Oracle)(std::int64_t N);

  /// Formula entry point for Family::Recursive (also provided for rdft:
  /// gen::ruleRDFT over a recursive F_{N/2}); null for searched/enumerated
  /// kinds with no closed-form rule.
  FormulaRef (*Rule)(std::int64_t N);
};

/// The full catalog in registration order.
const std::vector<TransformInfo> &all();

/// Entry for \p Name, or null when no such transform exists.
const TransformInfo *lookup(const std::string &Name);

/// Comma-joined catalog names for diagnostics: "fft, wht, rdft, ...".
std::string supportedNames();

/// Comma-joined supported datatypes: "complex, real".
std::string supportedDatatypes();

/// True when \p TI accepts \p Datatype (a member of AllowedDatatypes).
bool allowsDatatype(const TransformInfo &TI, const std::string &Datatype);

/// Dense oracle for a (possibly multi-dimensional) shape: the Kronecker
/// product of the per-dimension oracles, i.e. the row-major row-column
/// transform. An empty shape is invalid; a one-element shape is the 1-D
/// oracle.
Matrix oracleMatrix(const TransformInfo &TI,
                    const std::vector<std::int64_t> &Shape);

} // namespace transforms
} // namespace spl

#endif // SPL_TRANSFORMS_REGISTRY_H
