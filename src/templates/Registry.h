//===- templates/Registry.h - Template registry -----------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ordered collection of template definitions. Built-in templates are loaded
/// first (as if defined at the beginning of the program); matching proceeds
/// in reverse definition order so later (user) templates override earlier
/// ones, exactly as Section 3.2 of the paper specifies.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TEMPLATES_REGISTRY_H
#define SPL_TEMPLATES_REGISTRY_H

#include "support/Diagnostics.h"
#include "templates/TemplateDef.h"

#include <vector>

namespace spl {
namespace tpl {

/// Returns the SPL source text of the built-in templates (the start-up file
/// of the paper's compiler). Exposed so tools can print it and tests can
/// parse it independently.
const char *builtinTemplatesText();

/// The template registry.
class TemplateRegistry {
public:
  /// An empty registry (no semantics at all; for tests).
  TemplateRegistry() = default;

  /// A registry pre-loaded with the built-in templates: a fresh copy of
  /// the definitions parsed once per process. Parsing the built-in text
  /// must succeed; this asserts on failure.
  static TemplateRegistry withBuiltins();

  /// Appends a template; later templates take precedence.
  void add(TemplateDef Def) { Defs.push_back(std::move(Def)); }

  /// Appends several templates in definition order.
  void addAll(std::vector<TemplateDef> NewDefs);

  /// All templates in definition order. Callers match in reverse.
  const std::vector<TemplateDef> &defs() const { return Defs; }

private:
  std::vector<TemplateDef> Defs;
};

} // namespace tpl
} // namespace spl

#endif // SPL_TEMPLATES_REGISTRY_H
