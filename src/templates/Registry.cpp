//===- templates/Registry.cpp - Template registry ---------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "templates/Registry.h"

#include "frontend/Parser.h"

#include <cassert>

using namespace spl;
using namespace spl::tpl;

TemplateRegistry TemplateRegistry::withBuiltins() {
  // Parsed once per process (thread-safe static init); every registry gets
  // its own copy, so templates a caller adds never leak into the next one.
  // The definitions share immutable nodes, so the copy is cheap.
  static const TemplateRegistry Builtins = [] {
    Diagnostics Diags;
    TemplateRegistry R;
    R.addAll(parseTemplateString(builtinTemplatesText(), Diags));
    assert(!Diags.hasErrors() && "built-in templates failed to parse");
    return R;
  }();
  return Builtins;
}

void TemplateRegistry::addAll(std::vector<TemplateDef> NewDefs) {
  for (TemplateDef &D : NewDefs)
    Defs.push_back(std::move(D));
}
