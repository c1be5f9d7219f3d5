//===- icode/Intrinsics.cpp - Intrinsic function registry ------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "icode/Intrinsics.h"

#include "ir/Transforms.h"

using namespace spl;
using namespace spl::icode;

IntrinsicRegistry::IntrinsicRegistry() {
  add("W", 2, [](const std::vector<std::int64_t> &A) {
    return wRoot(A[0], A[1]);
  }, 1);
  // Its real and imaginary parts, for real-typed templates such as (S n).
  add("WR", 2, [](const std::vector<std::int64_t> &A) {
    return Cplx(wRoot(A[0], A[1]).real(), 0);
  }, 1);
  add("WI", 2, [](const std::vector<std::int64_t> &A) {
    return Cplx(wRoot(A[0], A[1]).imag(), 0);
  }, 1);
  add("TW", 3, [](const std::vector<std::int64_t> &A) {
    return twiddleEntry(A[0], A[1], A[2]);
  }, 2, {"n to divide mn", [](const std::int64_t *O) {
           return O[0] % O[1] == 0;
         }});
  add("DCT2E", 3, [](const std::vector<std::int64_t> &A) {
    return Cplx(dct2Entry(A[0], A[1], A[2]), 0);
  }, 1);
  add("DCT4E", 3, [](const std::vector<std::int64_t> &A) {
    return Cplx(dct4Entry(A[0], A[1], A[2]), 0);
  }, 1);
  add("WHTE", 3, [](const std::vector<std::int64_t> &A) {
    return Cplx(whtEntry(A[0], A[1], A[2]), 0);
  }, 1, {"n to be a power of two", [](const std::int64_t *O) {
           return (O[0] & (O[0] - 1)) == 0;
         }});
}

const IntrinsicRegistry &IntrinsicRegistry::builtins() {
  static const IntrinsicRegistry Registry;
  return Registry;
}

void IntrinsicRegistry::add(std::string Name, unsigned Arity, IntrinsicFn Fn,
                            unsigned Orders, OrderRule Rule) {
  for (auto &[N, E] : Entries) {
    if (N == Name) {
      E = {Arity, std::move(Fn), Orders, Rule};
      return;
    }
  }
  Entries.push_back({std::move(Name), {Arity, std::move(Fn), Orders, Rule}});
}

const IntrinsicRegistry::Entry *
IntrinsicRegistry::find(const std::string &Name) const {
  for (const auto &[N, E] : Entries)
    if (N == Name)
      return &E;
  return nullptr;
}

bool IntrinsicRegistry::contains(const std::string &Name) const {
  return find(Name) != nullptr;
}

unsigned IntrinsicRegistry::arity(const std::string &Name) const {
  const Entry *E = find(Name);
  assert(E && "unknown intrinsic");
  return E->Arity;
}

unsigned IntrinsicRegistry::orders(const std::string &Name) const {
  const Entry *E = find(Name);
  assert(E && "unknown intrinsic");
  return E->Orders;
}

const OrderRule &IntrinsicRegistry::orderRule(const std::string &Name) const {
  const Entry *E = find(Name);
  assert(E && "unknown intrinsic");
  return E->Rule;
}

Cplx IntrinsicRegistry::eval(const std::string &Name,
                             const std::vector<std::int64_t> &Args) const {
  const Entry *E = find(Name);
  assert(E && "unknown intrinsic");
  assert(Args.size() == E->Arity && "intrinsic arity mismatch");
  return E->Fn(Args);
}
