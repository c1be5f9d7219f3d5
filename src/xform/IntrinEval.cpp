//===- xform/IntrinEval.cpp - Intrinsic function evaluation -----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "xform/IntrinEval.h"

#include <algorithm>
#include <map>

using namespace spl;
using namespace spl::xform;
using namespace spl::icode;

namespace {

/// Orders complex values lexicographically so tables can key a map.
struct TableLess {
  bool operator()(const std::vector<Cplx> &A,
                  const std::vector<Cplx> &B) const {
    return std::lexicographical_compare(
        A.begin(), A.end(), B.begin(), B.end(), [](Cplx X, Cplx Y) {
          if (X.real() != Y.real())
            return X.real() < Y.real();
          return X.imag() < Y.imag();
        });
  }
};

class IntrinEvalImpl {
public:
  IntrinEvalImpl(Program &Out, const IntrinsicRegistry &Intrinsics)
      : Out(Out), Intrinsics(Intrinsics) {}

  void run() {
    for (Instr &I : Out.Body) {
      switch (I.Opcode) {
      case Op::Loop:
        Ranges.push_back({I.LoopVar, I.Lo, I.Hi});
        break;
      case Op::End:
        Ranges.pop_back();
        break;
      default:
        rewrite(I.A);
        rewrite(I.B);
        break;
      }
    }
  }

private:
  Program &Out;
  const IntrinsicRegistry &Intrinsics;
  std::vector<std::tuple<int, std::int64_t, std::int64_t>> Ranges;
  std::map<std::vector<Cplx>, int, TableLess> TableIds;

  void rewrite(Operand &O) {
    if (O.Kind != OpndKind::Intrinsic)
      return;

    // Loop variables the arguments depend on, innermost-last, deduplicated,
    // in enclosing-loop order so strides are well-defined.
    std::vector<int> Used;
    for (const IntExprRef &A : O.Args)
      A->collectVars(Used);
    std::vector<std::tuple<int, std::int64_t, std::int64_t>> Dims;
    for (const auto &[Var, Lo, Hi] : Ranges) {
      if (std::find(Used.begin(), Used.end(), Var) != Used.end())
        Dims.push_back({Var, Lo, Hi});
    }

    if (Dims.empty()) {
      // Fully constant call.
      std::vector<std::int64_t> Args;
      std::vector<std::int64_t> NoVars;
      for (const IntExprRef &A : O.Args)
        Args.push_back(A->eval(NoVars));
      O = Operand::fltConst(Intrinsics.eval(O.Name, Args));
      return;
    }

    // Row-major table over the used dimensions. Inside an empty loop the
    // operand never runs, so it needs no table. The expander bounded the
    // table size of every non-empty nest.
    std::vector<std::int64_t> Strides(Dims.size());
    std::int64_t Total = 1;
    for (size_t D = Dims.size(); D-- > 0;) {
      Strides[D] = Total;
      if (std::get<2>(Dims[D]) < std::get<1>(Dims[D])) {
        O = Operand::fltConst(Cplx(0, 0));
        return;
      }
      Total *= std::get<2>(Dims[D]) - std::get<1>(Dims[D]) + 1;
    }

    int MaxVar = 0;
    for (const auto &[Var, Lo, Hi] : Dims)
      MaxVar = std::max(MaxVar, Var);
    std::vector<std::int64_t> Vars(MaxVar + 1, 0);

    std::vector<Cplx> Table(Total);
    // Odometer over all index combinations.
    std::vector<std::int64_t> Idx(Dims.size());
    for (size_t D = 0; D != Dims.size(); ++D)
      Idx[D] = std::get<1>(Dims[D]);
    for (std::int64_t Flat = 0; Flat != Total; ++Flat) {
      for (size_t D = 0; D != Dims.size(); ++D)
        Vars[std::get<0>(Dims[D])] = Idx[D];
      std::vector<std::int64_t> Args;
      for (const IntExprRef &A : O.Args)
        Args.push_back(A->eval(Vars));
      Table[Flat] = Intrinsics.eval(O.Name, Args);
      // Advance the odometer (last dimension fastest).
      for (size_t D = Dims.size(); D-- > 0;) {
        if (++Idx[D] <= std::get<2>(Dims[D]))
          break;
        Idx[D] = std::get<1>(Dims[D]);
      }
    }

    // Share identical tables (iterative FFTs reuse twiddle tables).
    auto [It, Inserted] =
        TableIds.insert({std::move(Table), static_cast<int>(Out.Tables.size())});
    if (Inserted)
      Out.Tables.push_back(It->first);

    Affine Sub(0);
    for (size_t D = 0; D != Dims.size(); ++D) {
      Sub.Base -= std::get<1>(Dims[D]) * Strides[D];
      Sub = Sub.plus(Affine::var(std::get<0>(Dims[D]), Strides[D]));
    }
    O = Operand::tableElem(It->second, Sub);
  }
};

} // namespace

Program xform::evalIntrinsics(const Program &P,
                              const IntrinsicRegistry &Intrinsics) {
  Program Out = P;
  IntrinEvalImpl(Out, Intrinsics).run();
  assert(Out.verify().empty() &&
         "intrinsic evaluation produced invalid i-code");
  return Out;
}
