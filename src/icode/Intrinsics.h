//===- icode/Intrinsics.h - Intrinsic function registry ---------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Intrinsic functions are parameterized scalar functions evaluated at
/// compile time (paper Section 3.3.2): W(n,k) returns w_n^k, etc. Templates
/// reference intrinsics by name; the intrinsic-evaluation pass folds calls
/// with constant arguments and synthesizes lookup tables for calls indexed
/// by loop variables. The registry is extensible so user templates can ship
/// their own intrinsics.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_ICODE_INTRINSICS_H
#define SPL_ICODE_INTRINSICS_H

#include "ir/Matrix.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace spl {
namespace icode {

/// Evaluator for one intrinsic function: maps integer arguments to a scalar.
using IntrinsicFn = std::function<Cplx(const std::vector<std::int64_t> &)>;

/// A condition an intrinsic's orders must meet beyond being positive, and
/// its words for the expander's diagnostic ("n to divide mn").
struct OrderRule {
  const char *Need = nullptr;                        ///< Null: no rule.
  bool (*Holds)(const std::int64_t *Orders) = nullptr; ///< On the orders.
};

/// Name-indexed table of intrinsic functions.
class IntrinsicRegistry {
public:
  /// A registry pre-populated with the built-ins:
  ///   W(n,k)        = w_n^k = exp(-2*pi*i*k/n)
  ///   WR(n,k)       = Re w_n^k,  WI(n,k) = Im w_n^k
  ///   TW(mn,n,i)    = diagonal element i of the twiddle matrix T^{mn}_n
  ///   DCT2E(n,k,j)  = element (k,j) of the unnormalized DCT-II
  ///   DCT4E(n,k,j)  = element (k,j) of the unnormalized DCT-IV
  ///   WHTE(n,k,j)   = element (k,j) of the Walsh-Hadamard transform
  static const IntrinsicRegistry &builtins();

  IntrinsicRegistry();

  /// Registers (or replaces) an intrinsic. \p Arity is checked at
  /// evaluation time. Its first \p Orders arguments are orders (W's n,
  /// TW's mn and n), which the expander requires to be positive and, when
  /// there is a \p Rule, to meet it (TW's n | mn, WHTE's power-of-two n).
  void add(std::string Name, unsigned Arity, IntrinsicFn Fn,
           unsigned Orders = 0, OrderRule Rule = {});

  /// True when \p Name is a registered intrinsic.
  bool contains(const std::string &Name) const;

  /// Arity of \p Name; asserts that the intrinsic exists.
  unsigned arity(const std::string &Name) const;

  /// How many leading arguments of \p Name are orders; asserts that the
  /// intrinsic exists.
  unsigned orders(const std::string &Name) const;

  /// The rule on \p Name's orders (no Holds when there is none); asserts
  /// that the intrinsic exists.
  const OrderRule &orderRule(const std::string &Name) const;

  /// Evaluates \p Name on \p Args; asserts on unknown name or wrong arity.
  Cplx eval(const std::string &Name,
            const std::vector<std::int64_t> &Args) const;

private:
  struct Entry {
    unsigned Arity;
    IntrinsicFn Fn;
    unsigned Orders;
    OrderRule Rule;
  };
  std::vector<std::pair<std::string, Entry>> Entries;

  const Entry *find(const std::string &Name) const;
};

} // namespace icode
} // namespace spl

#endif // SPL_ICODE_INTRINSICS_H
