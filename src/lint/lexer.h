#pragma once

// A lightweight C++ lexer for radiomc_lint (src/lint/).
//
// The linter's rules must see through comments and string literals: a
// mention of `rand()` in a doc comment is fine, a call in code is not.
// This is not a real C++ front end — no preprocessing, no templates, no
// name lookup — just a faithful token stream with line numbers, plus the
// two side channels rules need: comments (for waiver directives) and
// #include directives (for the layer-dag include graph).
//
// The lexer is dependency-free and total: any byte sequence produces a
// token stream, never an error. Unterminated literals are closed at end
// of file so a half-written fixture still lints.

#include <string>
#include <string_view>
#include <vector>

namespace radiomc::lint {

struct Token {
  enum class Kind {
    kIdent,   ///< identifiers and keywords (no keyword table needed)
    kNumber,  ///< numeric literal, incl. digit separators and suffixes
    kString,  ///< "..." or R"tag(...)tag"; text excludes the quotes
    kChar,    ///< '...'
    kPunct,   ///< operators/punctuation; multi-char for ::, ->, ==, !=, &&, ||
  };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

/// A comment, kept out of the token stream. The rule engine parses waiver
/// directives from these: a `radiomc-lint:` marker, then an
/// allow(rule) clause and an optional reason.
struct Comment {
  int line = 0;      ///< line the comment starts on
  std::string text;  ///< body without the // or /* */ fences
};

/// An #include directive. `angled` distinguishes <...> from "...".
struct IncludeDirective {
  int line = 0;
  std::string path;
  bool angled = false;
};

/// One lexed translation unit.
struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
};

/// Lexes `src` (the file contents) into tokens + comments + includes.
LexedFile lex_source(std::string path, std::string_view src);

}  // namespace radiomc::lint
