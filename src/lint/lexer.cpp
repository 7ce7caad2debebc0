#include "lint/lexer.h"

#include <cctype>

namespace radiomc::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class Lexer {
 public:
  Lexer(std::string path, std::string_view src) : src_(src) {
    out_.path = std::move(path);
  }

  LexedFile run() {
    while (pos_ < src_.size()) step();
    return std::move(out_);
  }

 private:
  char cur() const { return src_[pos_]; }
  char peek(std::size_t k = 1) const {
    return pos_ + k < src_.size() ? src_[pos_ + k] : '\0';
  }

  void advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      line_has_code_ = false;
    }
    ++pos_;
  }

  void push(Token::Kind kind, std::string text, int line) {
    out_.tokens.push_back({kind, std::move(text), line});
    line_has_code_ = true;
  }

  void step() {
    const char c = cur();
    if (c == '\\' && peek() == '\n') {  // line continuation
      advance();
      advance();
      return;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      return;
    }
    if (c == '/' && peek() == '/') {
      line_comment();
      return;
    }
    if (c == '/' && peek() == '*') {
      block_comment();
      return;
    }
    if (c == '#' && !line_has_code_) {
      directive();
      return;
    }
    if (c == '"') {
      string_literal();
      return;
    }
    if (c == 'R' && peek() == '"') {
      raw_string_literal();
      return;
    }
    if (c == '\'') {
      char_literal();
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek())))) {
      number();
      return;
    }
    if (ident_start(c)) {
      ident();
      return;
    }
    punct();
  }

  void line_comment() {
    const int start = line_;
    advance();
    advance();  // //
    std::string text;
    while (pos_ < src_.size() && cur() != '\n') {
      text += cur();
      advance();
    }
    out_.comments.push_back({start, std::move(text)});
  }

  void block_comment() {
    const int start = line_;
    advance();
    advance();  // /*
    std::string text;
    while (pos_ < src_.size()) {
      if (cur() == '*' && peek() == '/') {
        advance();
        advance();
        break;
      }
      text += cur();
      advance();
    }
    out_.comments.push_back({start, std::move(text)});
  }

  /// Preprocessor line: records #include targets, swallows the rest of the
  /// directive (honoring line continuations). Comments inside directives
  /// are rare and ignored.
  void directive() {
    const int start = line_;
    advance();  // #
    while (pos_ < src_.size() && (cur() == ' ' || cur() == '\t')) advance();
    std::string name;
    while (pos_ < src_.size() && ident_char(cur())) {
      name += cur();
      advance();
    }
    if (name == "include") {
      while (pos_ < src_.size() && (cur() == ' ' || cur() == '\t')) advance();
      if (pos_ < src_.size() && (cur() == '<' || cur() == '"')) {
        const bool angled = cur() == '<';
        const char close = angled ? '>' : '"';
        advance();
        std::string target;
        while (pos_ < src_.size() && cur() != close && cur() != '\n') {
          target += cur();
          advance();
        }
        out_.includes.push_back({start, std::move(target), angled});
      }
    }
    // Swallow to end of line; `\`-continued lines stay in the directive.
    while (pos_ < src_.size() && cur() != '\n') {
      if (cur() == '\\' && peek() == '\n') advance();
      if (cur() == '/' && peek() == '/') {  // trailing comment ends it
        line_comment();
        return;
      }
      advance();
    }
  }

  void string_literal() {
    const int start = line_;
    advance();  // "
    std::string text;
    while (pos_ < src_.size() && cur() != '"' && cur() != '\n') {
      if (cur() == '\\' && pos_ + 1 < src_.size() && peek() != '\n') {
        text += cur();
        advance();  // keep the escape pair together so \" is not a fence
      }
      text += cur();
      advance();
    }
    if (pos_ < src_.size() && cur() == '"') advance();
    push(Token::Kind::kString, std::move(text), start);
  }

  void raw_string_literal() {
    const int start = line_;
    advance();  // R
    advance();  // "
    std::string delim;
    while (pos_ < src_.size() && cur() != '(' && cur() != '\n') {
      delim += cur();
      advance();
    }
    if (pos_ < src_.size()) advance();  // (
    const std::string close = ")" + delim + "\"";
    std::string text;
    while (pos_ < src_.size()) {
      if (src_.compare(pos_, close.size(), close) == 0) {
        for (std::size_t k = 0; k < close.size(); ++k) advance();
        break;
      }
      text += cur();
      advance();
    }
    push(Token::Kind::kString, std::move(text), start);
  }

  void char_literal() {
    const int start = line_;
    advance();  // '
    std::string text;
    while (pos_ < src_.size() && cur() != '\'' && cur() != '\n') {
      if (cur() == '\\' && pos_ + 1 < src_.size() && peek() != '\n') {
        text += cur();
        advance();
      }
      text += cur();
      advance();
    }
    if (pos_ < src_.size() && cur() == '\'') advance();
    push(Token::Kind::kChar, std::move(text), start);
  }

  void number() {
    const int start = line_;
    std::string text;
    while (pos_ < src_.size() &&
           (ident_char(cur()) || cur() == '.' || cur() == '\'' ||
            ((cur() == '+' || cur() == '-') && !text.empty() &&
             (text.back() == 'e' || text.back() == 'E' ||
              text.back() == 'p' || text.back() == 'P')))) {
      if (cur() != '\'') text += cur();
      advance();
    }
    push(Token::Kind::kNumber, std::move(text), start);
  }

  void ident() {
    const int start = line_;
    std::string text;
    while (pos_ < src_.size() && ident_char(cur())) {
      text += cur();
      advance();
    }
    push(Token::Kind::kIdent, std::move(text), start);
  }

  void punct() {
    const int start = line_;
    const char c = cur();
    const char n = peek();
    static constexpr const char* kTwo[] = {"::", "->", "==", "!=", "&&",
                                           "||", "<=", ">=", "+=", "-="};
    for (const char* two : kTwo) {
      if (c == two[0] && n == two[1]) {
        advance();
        advance();
        push(Token::Kind::kPunct, two, start);
        return;
      }
    }
    advance();
    push(Token::Kind::kPunct, std::string(1, c), start);
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool line_has_code_ = false;
  LexedFile out_;
};

}  // namespace

LexedFile lex_source(std::string path, std::string_view src) {
  return Lexer(std::move(path), src).run();
}

}  // namespace radiomc::lint
