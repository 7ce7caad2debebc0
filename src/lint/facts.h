#pragma once

// Stage one of the semantic analyzer: per-file *facts* extracted from the
// lexer's token stream (src/lint/lexer.h), plus the helpers every pass
// shares.
//
// The token-level rules see one file at a time; some invariants are
// cross-translation-unit properties — a split tag declared in one file and
// colliding with a tag in another, an include edge that crosses a layer
// boundary declared in the manifest. So the analyzer is two-stage: this
// pass walks each token stream exactly once and records everything the
// cross-TU analyses (src/lint/semantic.h, src/lint/layers.h) need.
//
// Like the lexer, extraction is total: any token stream produces facts,
// never an error. It is a heuristic parse (no preprocessing, no name
// lookup), tuned to this repo's idioms and pinned by fixtures in
// tests/lint_test.cpp.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace radiomc::lint {

// ---------------------------------------------------------------------------
// Helpers shared by every pass (rules match directory suffixes so the tool
// works on absolute paths, repo-relative paths and fixture names).
// ---------------------------------------------------------------------------

/// True iff `path` contains `dir` as a complete path-component prefix
/// somewhere, e.g. in_dir("/root/repo/src/protocols/x.cpp", "src/protocols").
bool in_dir(std::string_view path, std::string_view dir);
std::string_view basename_of(std::string_view path);

/// support/rng.{h,cpp}: the one place raw engines and literal seeds live.
bool is_rng_support(std::string_view path);

bool is_ident(const Token& t);
bool is_ident(const Token& t, std::string_view text);
bool is_punct(const Token& t, std::string_view text);

/// "0x" + lowercase hex, the form every report prints tag values in.
std::string hex64(std::uint64_t v);

struct Finding {
  std::string rule;     ///< rule id, e.g. "no-raw-random"
  std::string file;
  int line = 0;
  std::string message;
  bool waived = false;
  std::string waiver_reason;  ///< nonempty iff waived and a reason was given
};

/// Emits one (unwaived) finding.
void report(std::vector<Finding>* out, std::string rule, std::string file,
            int line, std::string message);

// ---------------------------------------------------------------------------
// Facts.
// ---------------------------------------------------------------------------

/// One `<receiver>.split(<tag>)` / `-><tag>` call site.
struct SplitFact {
  std::string receiver;  ///< ident chain before .split; "<expr>" if complex
  std::string tag_expr;  ///< the argument tokens, space-joined
  bool tag_is_literal = false;  ///< argument is a single integer literal
  bool tag_is_name = false;     ///< argument is one (possibly ::-qualified) identifier
  bool tag_has_call = false;    ///< argument contains a function call
  bool resolved = false;        ///< value holds the constant tag
  std::uint64_t value = 0;
  int line = 0;
  std::string function;  ///< enclosing definition; empty at file/class scope
};

/// An `Rng x(<literal>)` / `Rng(<literal>)` construction.
struct RngCtorFact {
  std::uint64_t value = 0;
  int line = 0;
};

/// A `constexpr ... kName = <integer literal>;` definition — the raw
/// material of the split-tag registry (support/rng_tags.h).
struct TagConstFact {
  std::string name;
  std::uint64_t value = 0;
  int line = 0;
};

/// A `Type* name = nullptr` declaration (the optional-observability
/// idiom), from which the hub-null-check pass builds its cross-TU field set.
struct PointerFieldFact {
  std::string type;
  std::string name;
};

/// Everything stage one knows about one translation unit.
struct FileFacts {
  std::string path;
  std::vector<IncludeDirective> includes;
  std::vector<SplitFact> splits;
  std::vector<RngCtorFact> literal_rng_ctors;
  std::vector<TagConstFact> tag_consts;
  std::vector<PointerFieldFact> null_pointer_fields;
};

/// Extracts facts for every lexed file, then resolves named split tags
/// against the global constant table (a tag `kFaultStream` used in one TU
/// and defined in another resolves here — the cross-TU step).
std::vector<FileFacts> build_facts(const std::vector<LexedFile>& lexed);

}  // namespace radiomc::lint
