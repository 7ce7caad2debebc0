#include "lint/facts.h"

#include <charconv>
#include <map>
#include <sstream>

namespace radiomc::lint {

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

bool in_dir(std::string_view path, std::string_view dir) {
  std::string needle = std::string(dir) + "/";
  if (path.substr(0, needle.size()) == needle) return true;
  std::string anywhere = "/" + needle;
  return path.find(anywhere) != std::string_view::npos;
}

std::string_view basename_of(std::string_view path) {
  auto pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

bool is_rng_support(std::string_view path) {
  const std::string_view base = basename_of(path);
  return in_dir(path, "src/support") && (base == "rng.h" || base == "rng.cpp");
}

bool is_ident(const Token& t) { return t.kind == Token::Kind::kIdent; }

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

void report(std::vector<Finding>* out, std::string rule, std::string file,
            int line, std::string message) {
  out->push_back(
      {std::move(rule), std::move(file), line, std::move(message), false, {}});
}

namespace {

/// Parses a C++ integer literal token (decimal/hex/octal/binary, u/l
/// suffixes; digit separators were already stripped by the lexer). Returns
/// false on floats and malformed text.
bool parse_int_literal(std::string_view text, std::uint64_t* out) {
  std::size_t end = text.size();
  while (end > 0) {
    char c = text[end - 1];
    if (c == 'u' || c == 'U' || c == 'l' || c == 'L') {
      --end;
    } else {
      break;
    }
  }
  if (end == 0) return false;
  std::string_view body = text.substr(0, end);
  int base = 10;
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    base = 16;
    body.remove_prefix(2);
  } else if (body.size() > 2 && body[0] == '0' &&
             (body[1] == 'b' || body[1] == 'B')) {
    base = 2;
    body.remove_prefix(2);
  } else if (body.size() > 1 && body[0] == '0') {
    base = 8;
    body.remove_prefix(1);
  } else if (body.find('.') != std::string_view::npos ||
             body.find('e') != std::string_view::npos ||
             body.find('E') != std::string_view::npos) {
    return false;  // floating literal
  }
  if (body.empty()) {  // plain "0"
    *out = 0;
    return true;
  }
  std::uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), value, base);
  if (ec != std::errc{} || ptr != body.data() + body.size()) return false;
  *out = value;
  return true;
}

/// Keywords that may sit between a declarator's closing `)` and its body
/// `{` — skipped when scanning back for the function name.
bool is_declarator_suffix(const Token& t) {
  return t.kind == Token::Kind::kIdent &&
         (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
          t.text == "final" || t.text == "mutable" || t.text == "try");
}

/// Control keywords whose `(...)` + `{` must not be mistaken for a
/// function definition.
bool is_control_keyword(std::string_view s) {
  return s == "if" || s == "while" || s == "for" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "new" ||
         s == "delete" || s == "do" || s == "else" || s == "alignas" ||
         s == "alignof" || s == "static_assert" || s == "decltype";
}

/// Walks back from a closing `)` at `close` to its opening `(`. Returns
/// the opening index, or SIZE_MAX on imbalance.
std::size_t match_back_paren(const std::vector<Token>& toks,
                             std::size_t close) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > 0;) {
    if (is_punct(toks[j], ")")) ++depth;
    if (is_punct(toks[j], "(")) {
      if (--depth == 0) return j;
    }
  }
  return static_cast<std::size_t>(-1);
}

/// Walks forward from an opening `(` at `open` to its matching `)`.
/// Returns the closing index, or toks.size() on imbalance.
std::size_t match_forward_paren(const std::vector<Token>& toks,
                                std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < toks.size(); ++j) {
    if (is_punct(toks[j], "(")) ++depth;
    if (is_punct(toks[j], ")")) {
      if (--depth == 0) return j;
    }
  }
  return toks.size();
}

/// Collects the `A::B::name` identifier chain ending at token `end`
/// (inclusive). Returns the joined name and sets `*begin` to the chain's
/// first token index. Empty result if `end` is not an identifier.
std::string collect_name_chain_back(const std::vector<Token>& toks,
                                    std::size_t end, std::size_t* begin) {
  if (!is_ident(toks[end])) return {};
  std::size_t first = end;
  while (first >= 2 && is_punct(toks[first - 1], "::") &&
         is_ident(toks[first - 2])) {
    first -= 2;
  }
  std::string name;
  for (std::size_t j = first; j <= end; ++j) name += toks[j].text;
  *begin = first;
  return name;
}

/// Given the index of a body-opening `{`, determines whether it opens a
/// function definition and if so returns its (possibly qualified) name.
/// Handles constructor init lists by walking back over `, member(expr)`
/// items to the parameter list. Returns "" for non-function braces
/// (classes, namespaces, init lists, control statements, lambdas).
std::string function_name_before(const std::vector<Token>& toks,
                                 std::size_t brace) {
  if (brace == 0) return {};
  std::size_t j = brace - 1;
  while (j > 0 && is_declarator_suffix(toks[j])) --j;
  // Walk back through constructor init-list items: name(args) [, ...]* : params)
  for (int hops = 0; hops < 256; ++hops) {
    if (!is_punct(toks[j], ")")) return {};
    std::size_t open = match_back_paren(toks, j);
    if (open == static_cast<std::size_t>(-1) || open == 0) return {};
    std::size_t begin = 0;
    std::string name = collect_name_chain_back(toks, open - 1, &begin);
    if (name.empty()) return {};
    if (is_control_keyword(toks[begin].text)) return {};
    if (begin == 0) return name;
    const Token& prev = toks[begin - 1];
    if (is_punct(prev, ",") || is_punct(prev, ":")) {
      // Init-list member; the function head is further back. A `::`
      // already folded into the chain, so a single `:` here is the
      // ctor-init-list introducer and `,` separates members.
      if (begin < 2) return {};
      j = begin - 2;
      while (j > 0 && is_declarator_suffix(toks[j])) --j;
      continue;
    }
    return name;
  }
  return {};
}

/// Builds the receiver chain (`cfg.trace`, `rng_`, `ns::obj.rng`) ending
/// just before the separator at index `sep`. Returns "<expr>" when the
/// receiver is not a plain identifier chain.
std::string receiver_chain(const std::vector<Token>& toks, std::size_t sep) {
  if (sep == 0 || !is_ident(toks[sep - 1])) return "<expr>";
  std::string out = toks[sep - 1].text;
  std::size_t j = sep - 1;
  while (j >= 2 &&
         (is_punct(toks[j - 1], ".") || is_punct(toks[j - 1], "->") ||
          is_punct(toks[j - 1], "::")) &&
        is_ident(toks[j - 2])) {
    out = toks[j - 2].text + toks[j - 1].text + out;
    j -= 2;
  }
  return out;
}

FileFacts extract_facts(const LexedFile& f) {
  FileFacts out;
  out.path = f.path;
  out.includes = f.includes;
  const auto& toks = f.tokens;

  // -- Pass 1: function definition spans ------------------------------------
  struct FunctionSpan {
    std::string name;
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
  };
  std::vector<FunctionSpan> functions;
  struct OpenScope {
    std::size_t func_index;  // index into functions
    int depth;
  };
  std::vector<OpenScope> open;
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) {
      ++depth;
      std::string name = function_name_before(toks, i);
      if (!name.empty()) {
        functions.push_back({std::move(name), i + 1, toks.size()});
        open.push_back({functions.size() - 1, depth});
      }
    } else if (is_punct(toks[i], "}")) {
      if (!open.empty() && open.back().depth == depth) {
        functions[open.back().func_index].body_end = i;
        open.pop_back();
      }
      --depth;
    }
  }

  // Innermost enclosing function for a token index (functions are sorted
  // by body_begin; the last span containing idx wins).
  auto function_name_at = [&](std::size_t idx) -> std::string {
    const FunctionSpan* best = nullptr;
    for (const auto& fn : functions) {
      if (fn.body_begin > idx) break;
      if (idx < fn.body_end) best = &fn;
    }
    return best ? best->name : std::string{};
  };

  // -- Pass 2: everything else ----------------------------------------------
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // split(tag) call sites: IDENT "split" preceded by . or -> and
    // followed by "(".
    if (is_ident(t, "split") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(") && i > 0 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      std::size_t close = match_forward_paren(toks, i + 1);
      if (close < toks.size() && close > i + 2) {
        SplitFact s;
        s.receiver = receiver_chain(toks, i - 1);
        s.line = t.line;
        s.function = function_name_at(i);
        for (std::size_t j = i + 2; j < close; ++j) {
          if (!s.tag_expr.empty()) s.tag_expr += ' ';
          s.tag_expr += toks[j].text;
          if (is_ident(toks[j]) && j + 1 < close &&
              is_punct(toks[j + 1], "(")) {
            s.tag_has_call = true;
          }
        }
        if (close == i + 3 && toks[i + 2].kind == Token::Kind::kNumber) {
          s.tag_is_literal = true;
          s.resolved = parse_int_literal(toks[i + 2].text, &s.value);
        } else {
          // A pure `A::B::kName` chain?
          bool chain = true;
          for (std::size_t j = i + 2; j < close; ++j) {
            bool even = ((j - (i + 2)) % 2) == 0;
            if (even ? !is_ident(toks[j]) : !is_punct(toks[j], "::")) {
              chain = false;
              break;
            }
          }
          if (chain && is_ident(toks[close - 1])) s.tag_is_name = true;
        }
        out.splits.push_back(std::move(s));
      }
    }

    // Literal-seeded Rng constructions: `Rng(<n>)` or `Rng name(<n>)`.
    if (is_ident(t, "Rng") && !(i > 0 && is_punct(toks[i - 1], "::"))) {
      std::size_t paren = i + 1;  // temporary: Rng(0xCA97)
      if (paren < toks.size() && is_ident(toks[paren])) ++paren;  // Rng r(42)
      RngCtorFact c;
      c.line = t.line;
      if (paren + 2 < toks.size() && is_punct(toks[paren], "(") &&
          toks[paren + 1].kind == Token::Kind::kNumber &&
          is_punct(toks[paren + 2], ")") &&
          parse_int_literal(toks[paren + 1].text, &c.value)) {
        out.literal_rng_ctors.push_back(c);
      }
    }

    // constexpr constants: `constexpr ... NAME = <number> ;`
    if (is_ident(t, "constexpr")) {
      // Find the `=` before the next `;` at this nesting level.
      for (std::size_t j = i + 1; j + 2 < toks.size() && j < i + 12; ++j) {
        if (is_punct(toks[j], ";") || is_punct(toks[j], "{") ||
            is_punct(toks[j], "(")) {
          break;
        }
        if (is_punct(toks[j], "=") && is_ident(toks[j - 1]) &&
            toks[j + 1].kind == Token::Kind::kNumber &&
            is_punct(toks[j + 2], ";")) {
          TagConstFact k;
          k.name = toks[j - 1].text;
          k.line = toks[j - 1].line;
          if (parse_int_literal(toks[j + 1].text, &k.value)) {
            out.tag_consts.push_back(std::move(k));
          }
          break;
        }
      }
    }

    // Optional-hook fields: IDENT * IDENT = nullptr
    if (is_ident(t) && i + 4 < toks.size() && is_punct(toks[i + 1], "*") &&
        is_ident(toks[i + 2]) && is_punct(toks[i + 3], "=") &&
        is_ident(toks[i + 4], "nullptr")) {
      out.null_pointer_fields.push_back({t.text, toks[i + 2].text});
    }
  }
  return out;
}

}  // namespace

std::vector<FileFacts> build_facts(const std::vector<LexedFile>& lexed) {
  std::vector<FileFacts> db;
  db.reserve(lexed.size());
  for (const auto& f : lexed) db.push_back(extract_facts(f));

  // Cross-TU tag resolution: map every named constant to its value, then
  // resolve `split(kName)` / `split(ns::kName)` sites. Ambiguous names
  // (same identifier, different values in different TUs) stay unresolved
  // rather than guessing.
  std::map<std::string, std::pair<std::uint64_t, int>> consts;  // name -> (value, defs)
  for (const auto& f : db) {
    for (const auto& k : f.tag_consts) {
      auto it = consts.find(k.name);
      if (it == consts.end()) {
        consts.emplace(k.name, std::make_pair(k.value, 1));
      } else if (it->second.first != k.value) {
        ++it->second.second;
      }
    }
  }
  for (auto& f : db) {
    for (auto& s : f.splits) {
      if (!s.tag_is_name) continue;
      auto pos = s.tag_expr.rfind(' ');
      std::string leaf =
          pos == std::string::npos ? s.tag_expr : s.tag_expr.substr(pos + 1);
      auto it = consts.find(leaf);
      if (it != consts.end() && it->second.second == 1) {
        s.resolved = true;
        s.value = it->second.first;
      }
    }
  }
  return db;
}

}  // namespace radiomc::lint
