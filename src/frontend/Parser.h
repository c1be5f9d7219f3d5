//===- frontend/Parser.h - SPL parser ---------------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for SPL programs: formulas, (define ...) name
/// assignments, (template ...) definitions with i-code bodies and bracketed
/// conditions, and compiler directives (#subname, #datatype, #codetype,
/// #language, #unroll). Defined names are resolved during parsing by
/// substitution, so downstream phases only ever see closed formula trees
/// (this is why pattern variables "cannot match undefined symbols").
/// Every expression (a condition, a body expression, a matrix element, an
/// integer parameter) goes through one precedence-climbing parseExpr that
/// builds a tpl::TExpr.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_FRONTEND_PARSER_H
#define SPL_FRONTEND_PARSER_H

#include "frontend/Lexer.h"
#include "ir/Formula.h"
#include "templates/TemplateDef.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace spl {

/// Directive state in effect for a compile item.
struct DirectiveState {
  std::string SubName;              ///< #subname (empty: derive from index).
  std::string Datatype = "complex"; ///< #datatype real|complex.
  std::string CodeType = "real";    ///< #codetype real|complex.
  std::string Language = "c";       ///< #language c|fortran.
  std::optional<bool> Unroll;       ///< #unroll on|off currently in effect.
};

/// One top-level formula together with the directives that govern it.
struct CompileItem {
  FormulaRef Formula;
  DirectiveState Dirs;
};

/// A parsed SPL program.
struct SplProgram {
  std::vector<CompileItem> Items;
  std::vector<tpl::TemplateDef> Templates; ///< In definition order.
  std::map<std::string, FormulaRef> Defines;
};

/// The contexts of SPL's one expression grammar (docs/LANGUAGE.md §2).
/// Each admits a subset of it: template [conditions] compute on integers
/// with comparisons and logic; template i-code bodies add vector
/// references, intrinsic calls and complex pairs; matrix and diagonal
/// elements are constant complex arithmetic; integer parameters are
/// literals, pattern variables or parenthesized integer arithmetic.
enum class ExprContext { Condition, Body, Constant, IntParam };

/// The SPL parser. Errors are reported to the Diagnostics engine; parse
/// functions return nullopt / null on failure.
class Parser {
public:
  Parser(const std::string &Source, Diagnostics &Diags);

  /// Parses a complete program.
  std::optional<SplProgram> parseProgram();

  /// Parses a single formula (no directives/defines); used by tests, tools
  /// and the built-in template loader.
  FormulaRef parseSingleFormula(bool PatternMode = false);

private:
  Diagnostics &Diags;
  std::vector<Token> Toks;
  size_t Pos = 0;
  DirectiveState Dirs;
  std::map<std::string, FormulaRef> Defines;

  // Token helpers.
  const Token &peek(size_t Ahead = 0) const;
  const Token &cur() const { return peek(0); }
  Token take();
  bool consumeIf(Tok K);
  bool expect(Tok K, const char *What);
  void error(const char *Message);
  void skipToCloseParen();

  // Directives and top-level items.
  void handleDirective(const Token &T);

  // Formulas.
  FormulaRef parseFormula(bool PatternMode);
  FormulaRef parseParenFormula(bool PatternMode);
  std::optional<IntArg> parseIntArg(bool PatternMode);
  FormulaRef parseMatrixForm(SourceLoc Loc);
  FormulaRef parseDiagonalForm(SourceLoc Loc);
  FormulaRef parsePermutationForm(SourceLoc Loc);
  bool parseFormulaList(bool PatternMode, std::vector<FormulaRef> &Out);

  // Templates.
  std::optional<tpl::TemplateDef> parseTemplate(SourceLoc Loc);
  bool parseTStmtList(std::vector<tpl::TStmt> &Out);
  std::optional<tpl::TStmt> parseTStmt();

  // Expressions: one grammar, four contexts.
  tpl::TExprRef parseExpr(ExprContext C, int MinPrec = 0);
  tpl::TExprRef parseUnary(ExprContext C);
  tpl::TExprRef parsePrimary(ExprContext C);
  std::string parsePropertyName(std::string Base);
  std::optional<Cplx> parseElement();
};

/// Convenience: parses one formula from \p Source.
FormulaRef parseFormulaString(const std::string &Source, Diagnostics &Diags,
                              bool PatternMode = false);

/// Convenience: parses a program and returns just its templates (used for
/// the built-in template text and for user template files).
std::vector<tpl::TemplateDef> parseTemplateString(const std::string &Source,
                                                  Diagnostics &Diags);

} // namespace spl

#endif // SPL_FRONTEND_PARSER_H
