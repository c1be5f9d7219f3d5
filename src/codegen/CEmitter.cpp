//===- codegen/CEmitter.cpp - C code generation --------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"

#include "support/StrUtil.h"

#include <cassert>
#include <set>
#include <sstream>

using namespace spl;
using namespace spl::codegen;
using namespace spl::icode;

namespace {

/// The per-ISA spellings, the only part of the output that depends on the
/// ISA. Loads and stores use the unaligned forms: the runtime hands kernels
/// 64-byte AlignedBuffer bases, but stack/static temporaries only get the
/// platform's natural array alignment, and unaligned ops on aligned
/// addresses are free on every targeted microarchitecture.
struct Spelling {
  const char *Type;    ///< One lane group (the type of the f temporaries).
  const char *Include; ///< The intrinsics header.
  const char *Load, *Store, *Broadcast; ///< Unused at one lane.
  const char *NegOpen, *NegClose;       ///< Wrapped around the operand.
  const char *Ops[4]; ///< Add, Sub, Mul, Div: infix at one lane, else calls.
};

const Spelling &spelling(VectorISA ISA) {
  static const Spelling Scalar = {
      "double", "", "", "", "", "-", "", {" + ", " - ", " * ", " / "}};
  // Sign-bit flip: exact negation with no -0.0/rounding surprises, matching
  // what the scalar kernel's unary minus does.
  static const Spelling AVX2 = {
      "__m256d",
      "#include <immintrin.h>\n",
      "_mm256_loadu_pd",
      "_mm256_storeu_pd",
      "_mm256_set1_pd",
      "_mm256_xor_pd(",
      ", _mm256_set1_pd(-0.0))",
      {"_mm256_add_pd", "_mm256_sub_pd", "_mm256_mul_pd", "_mm256_div_pd"}};
  static const Spelling NEON = {
      "float64x2_t",
      "#include <arm_neon.h>\n",
      "vld1q_f64",
      "vst1q_f64",
      "vdupq_n_f64",
      "vnegq_f64(",
      ")",
      {"vaddq_f64", "vsubq_f64", "vmulq_f64", "vdivq_f64"}};
  switch (ISA) {
  case VectorISA::AVX2:
    return AVX2;
  case VectorISA::NEON:
    return NEON;
  case VectorISA::Scalar:
    break;
  }
  return Scalar;
}

class CEmitterImpl {
public:
  CEmitterImpl(const Program &P, const CEmitOptions &Opts)
      : P(P), Opts(Opts), Spell(spelling(Opts.ISA)),
        Lanes(laneCount(Opts.ISA)) {}

  std::string run() {
    assert(P.Type == DataType::Real &&
           "C output requires a real-typed program (lower complex first)");
    assert((Lanes == 1 || (!Opts.StrideParams && Opts.VectorizeCount == 0)) &&
           "stride parameters and VectorizeCount apply to scalar C only");
    // The outer-loop variable of the vectorization wrapper.
    VecVar = P.NumLoopVars;

    emitHeader();
    emitIncludes();
    emitExternalTableGlue();
    emitSignature();
    Out << "{\n";
    emitTables();
    emitDecls();
    Indent = 1;
    if (Opts.VectorizeCount > 0) {
      pad();
      Out << "for (i" << VecVar << " = 0; i" << VecVar << " < "
          << Opts.VectorizeCount << "; ++i" << VecVar << ") {\n";
      ++Indent;
    }
    emitBody();
    if (Opts.VectorizeCount > 0) {
      --Indent;
      pad();
      Out << "}\n";
    }
    for (size_t T : HeapTemps) {
      pad();
      Out << "free(t" << T << ");\n";
    }
    Out << "}\n";
    return Out.str();
  }

private:
  const Program &P;
  const CEmitOptions &Opts;
  const Spelling &Spell;
  const int Lanes;
  std::ostringstream Out;
  int Indent = 0;
  int VecVar = 0;
  std::vector<size_t> HeapTemps; ///< Temp indices malloc'd under ThreadSafe.

  void pad() {
    for (int I = 0; I < Indent; ++I)
      Out << "  ";
  }

  void emitHeader() {
    Out << "/* Generated by the SPL compiler";
    if (Lanes > 1)
      Out << " (vector backend, " << isaName(Opts.ISA) << ", " << Lanes
          << " lanes)";
    Out << ".\n";
    Out << " * subroutine: " << P.SubName << "\n";
    Out << " * input elements: " << P.InSize << ", output elements: "
        << P.OutSize;
    if (P.LoweredToReal)
      Out << " (complex, stored as interleaved re/im pairs of doubles)";
    Out << "\n";
    if (Lanes > 1)
      Out << " * layout: " << Lanes << " transform columns, slot-major "
          << "(buffer index = " << Lanes << "*slot + column)\n";
    if (!Opts.HeaderComment.empty())
      Out << " * " << Opts.HeaderComment << "\n";
    Out << " */\n";
  }

  /// Largest temporary (in doubles, after lane scaling) kept on the stack;
  /// larger ones are static (the paper's Fortran behavior) or
  /// heap-allocated under ThreadSafe.
  static constexpr std::int64_t StackTempLimit = std::int64_t(1) << 14;

  bool needsMalloc() const {
    if (!Opts.ThreadSafe)
      return false;
    for (std::int64_t Size : P.TempVecSizes)
      if (Size * Lanes > StackTempLimit)
        return true;
    return false;
  }

  void emitIncludes() {
    Out << Spell.Include;
    if (needsMalloc())
      Out << "#include <stdlib.h>\n";
  }

  void emitSignature() {
    const char *R = Opts.UseRestrict ? "restrict " : "";
    Out << "void " << P.SubName << "(double *" << R
        << "y, const double *" << R << "x";
    if (Opts.StrideParams)
      Out << ", int ioff, int ooff, int istride, int ostride";
    Out << ")\n";
  }

  void emitTables() {
    if (Opts.ExternalTables)
      return; // Declared at file scope before the function.
    for (size_t T = 0; T != P.Tables.size(); ++T) {
      pad();
      Out << "  static const double tab" << T << "[" << P.Tables[T].size()
          << "] = {";
      for (size_t I = 0; I != P.Tables[T].size(); ++I) {
        if (I)
          Out << ", ";
        if (I % 6 == 0)
          Out << "\n    ";
        Out << formatDouble(P.Tables[T][I].real());
      }
      Out << "\n  };\n";
    }
  }

  void emitExternalTableGlue() {
    if (!Opts.ExternalTables || P.Tables.empty())
      return;
    for (size_t T = 0; T != P.Tables.size(); ++T)
      Out << "static const double *tab" << T << ";\n";
    Out << "void " << P.SubName
        << "_set_tables(const double *const *tables)\n{\n";
    for (size_t T = 0; T != P.Tables.size(); ++T)
      Out << "  tab" << T << " = tables[" << T << "];\n";
    Out << "}\n\n";
  }

  void emitDecls() {
    // Scalar temps actually used.
    std::set<int> UsedF;
    std::set<int> UsedI;
    auto Note = [&](const Operand &O) {
      if (O.Kind == OpndKind::FltTemp)
        UsedF.insert(O.Id);
      if (O.Kind == OpndKind::VecElem || O.Kind == OpndKind::TableElem)
        for (const auto &[V, C] : O.Subs.Terms) {
          (void)C;
          UsedI.insert(V);
        }
    };
    for (const Instr &I : P.Body) {
      if (I.Opcode == Op::Loop) {
        UsedI.insert(I.LoopVar);
        continue;
      }
      if (I.Opcode == Op::End)
        continue;
      Note(I.Dst);
      Note(I.A);
      Note(I.B);
    }
    if (Opts.VectorizeCount > 0)
      UsedI.insert(VecVar);

    auto EmitList = [this](const char *Type, const char *Prefix,
                           const std::set<int> &Ids) {
      if (Ids.empty())
        return;
      int PerLine = 0;
      Out << "  " << Type << " ";
      for (auto It = Ids.begin(); It != Ids.end(); ++It) {
        if (It != Ids.begin()) {
          Out << ", ";
          if (++PerLine % 10 == 0)
            Out << "\n      ";
        }
        Out << Prefix << *It;
      }
      Out << ";\n";
    };
    // At m lanes each scalar f temporary becomes one lane-group register.
    EmitList(Spell.Type, "f", UsedF);
    EmitList("int", "i", UsedI);

    for (size_t T = 0; T != P.TempVecSizes.size(); ++T)
      if (P.TempVecSizes[T] > 0) {
        // Large temporaries would overflow the stack; make them static
        // (the Fortran compilers of the paper's era defaulted to static
        // storage — see the "automatic" discussion in Section 3.4) or, when
        // the routine must be reentrant, heap allocations freed on exit.
        std::int64_t Doubles = P.TempVecSizes[T] * Lanes;
        if (Doubles <= StackTempLimit) {
          Out << "  double t" << T << "[" << Doubles << "];\n";
        } else if (Opts.ThreadSafe) {
          Out << "  double *t" << T << " = (double *)malloc(" << Doubles
              << " * sizeof(double));\n";
          HeapTemps.push_back(T);
        } else {
          Out << "  static double t" << T << "[" << Doubles << "];\n";
        }
      }
  }

  /// Renders an affine form (without stride adjustment).
  static std::string affineStr(const Affine &A) {
    std::string S;
    for (const auto &[V, C] : A.Terms) {
      if (!S.empty())
        S += C < 0 ? " - " : " + ";
      else if (C < 0)
        S += "-";
      std::int64_t Abs = C < 0 ? -C : C;
      if (Abs != 1)
        S += std::to_string(Abs) + "*";
      S += "i" + std::to_string(V);
    }
    if (S.empty())
      return std::to_string(A.Base);
    if (A.Base > 0)
      S += " + " + std::to_string(A.Base);
    else if (A.Base < 0)
      S += " - " + std::to_string(-A.Base);
    return S;
  }

  /// Splits a lowered subscript 2*s + part into (s, part). Valid because the
  /// lowering doubles every coefficient.
  static std::pair<Affine, int> splitLowered(const Affine &Sub) {
    Affine S;
    int Part = static_cast<int>(Sub.Base & 1);
    S.Base = (Sub.Base - Part) / 2;
    for (const auto &[V, C] : Sub.Terms) {
      assert(C % 2 == 0 && "lowered subscripts have even coefficients");
      S.Terms.push_back({V, C / 2});
    }
    return {S, Part};
  }

  /// Subscript of an input/output element including stride parameters and
  /// the vectorization wrapper (both act on logical elements).
  std::string ioSubscript(const Affine &Sub, bool IsOut) {
    Affine Logical = Sub;
    int Part = 0;
    if (P.LoweredToReal)
      std::tie(Logical, Part) = splitLowered(Sub);

    if (Opts.VectorizeCount > 0)
      Logical = Logical.scaled(Opts.VectorizeCount).plus(Affine::var(VecVar));

    std::string S;
    std::string Stride = IsOut ? "ostride" : "istride";
    std::string Off = IsOut ? "ooff" : "ioff";
    std::string Core = affineStr(Logical);
    if (Opts.StrideParams)
      Core = Off + " + " + Stride + "*(" + Core + ")";
    if (P.LoweredToReal) {
      S = "2*(" + Core + ")";
      if (Part)
        S += " + 1";
    } else {
      S = Core;
    }
    return S;
  }

  /// Vector element \p O: the element `base[sub]` at one lane; above one,
  /// the address of its lane group, base + Lanes*(scalar slot). The scalar
  /// slot is the raw subscript, which for I/O already includes the re/im
  /// doubling the complex lowering bakes into coefficients, so the vector
  /// buffer is the scalar buffer with each double widened to a lane group.
  std::string memRef(const Operand &O) {
    std::string Base = O.Id == VecIn    ? "x"
                       : O.Id == VecOut ? "y"
                                        : "t" + std::to_string(O.Id -
                                                               FirstTempVec);
    if (Lanes > 1)
      return Base + " + " + std::to_string(Lanes) + "*(" + affineStr(O.Subs) +
             ")";
    if (O.Id == VecIn || O.Id == VecOut)
      return Base + "[" + ioSubscript(O.Subs, O.Id == VecOut) + "]";
    return Base + "[" + affineStr(O.Subs) + "]";
  }

  /// \p Fn applied to \p Args; the identity at one lane.
  std::string call(const char *Fn, const std::string &Args) const {
    return Lanes == 1 ? Args : std::string(Fn) + "(" + Args + ")";
  }

  /// A lane-group expression reading operand \p O.
  std::string valueStr(const Operand &O) {
    switch (O.Kind) {
    case OpndKind::FltConst: {
      double V = O.FConst.real();
      std::string S = formatDouble(V);
      // Negative constants in parentheses (the paper's SPARC note).
      return call(Spell.Broadcast, V < 0 ? "(" + S + ")" : S);
    }
    case OpndKind::FltTemp:
      return "f" + std::to_string(O.Id);
    case OpndKind::VecElem:
      return call(Spell.Load, memRef(O));
    case OpndKind::TableElem:
      // Tables hold one scalar per logical entry; all columns share it.
      return call(Spell.Broadcast, "tab" + std::to_string(O.Id) + "[" +
                                       affineStr(O.Subs) + "]");
    default:
      assert(false && "intrinsics must be evaluated before emission");
      return "<?>";
    }
  }

  /// Emits `Dst = <Val>` as an assignment or, above one lane, a store.
  void emitAssign(const Operand &Dst, const std::string &Val) {
    pad();
    if (Dst.Kind == OpndKind::VecElem && Lanes > 1)
      Out << Spell.Store << "(" << memRef(Dst) << ", " << Val << ");\n";
    else // A register, or at one lane a plain C lvalue.
      Out << valueStr(Dst) << " = " << Val << ";\n";
  }

  void emitBody() {
    for (const Instr &I : P.Body) {
      switch (I.Opcode) {
      case Op::Loop:
        pad();
        Out << "for (i" << I.LoopVar << " = " << I.Lo << "; i" << I.LoopVar
            << " <= " << I.Hi << "; ++i" << I.LoopVar << ") {\n";
        ++Indent;
        break;
      case Op::End:
        --Indent;
        pad();
        Out << "}\n";
        break;
      case Op::Copy:
        emitAssign(I.Dst, valueStr(I.A));
        break;
      case Op::Neg:
        emitAssign(I.Dst, Spell.NegOpen + valueStr(I.A) + Spell.NegClose);
        break;
      default: {
        const char *Fn = Spell.Ops[I.Opcode == Op::Add   ? 0
                                   : I.Opcode == Op::Sub ? 1
                                   : I.Opcode == Op::Mul ? 2
                                                         : 3];
        std::string A = valueStr(I.A), B = valueStr(I.B);
        emitAssign(I.Dst, Lanes == 1 ? A + Fn + B : call(Fn, A + ", " + B));
        break;
      }
      }
    }
  }
};

} // namespace

std::string codegen::emitC(const Program &P, const CEmitOptions &Opts) {
  return CEmitterImpl(P, Opts).run();
}
