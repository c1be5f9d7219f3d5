//===- frontend/Lexer.cpp - SPL lexer --------------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace spl;

namespace {

bool isSymbolStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == '$';
}

bool isSymbolChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

class LexerImpl {
public:
  LexerImpl(const std::string &Source, Diagnostics &Diags)
      : Src(Source), Diags(Diags) {}

  std::vector<Token> run() {
    std::vector<Token> Out;
    bool SawSpace = true;
    for (;;) {
      // Skip whitespace and comments.
      for (;;) {
        if (Pos < Src.size() &&
            std::isspace(static_cast<unsigned char>(Src[Pos]))) {
          advance();
          SawSpace = true;
          continue;
        }
        if (Pos < Src.size() && Src[Pos] == ';') {
          while (Pos < Src.size() && Src[Pos] != '\n')
            advance();
          SawSpace = true;
          continue;
        }
        break;
      }
      if (Pos >= Src.size()) {
        Token T;
        T.Kind = Tok::Eof;
        T.Loc = loc();
        Out.push_back(T);
        return Out;
      }
      Token T = lexOne();
      T.Adjacent = !SawSpace;
      SawSpace = false;
      if (T.Kind != Tok::Eof)
        Out.push_back(T);
    }
  }

private:
  const std::string &Src;
  Diagnostics &Diags;
  size_t Pos = 0;
  unsigned Line = 1, Col = 1;

  SourceLoc loc() const { return SourceLoc(Line, Col); }

  void advance() {
    if (Src[Pos] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  }

  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }

  Token make(Tok Kind, std::string Text, SourceLoc Loc) {
    Token T;
    T.Kind = Kind;
    T.Text = std::move(Text);
    T.Loc = Loc;
    return T;
  }

  Token lexOne() {
    SourceLoc L = loc();
    char C = Src[Pos];

    if (C == '#') {
      advance();
      std::string Text;
      while (Pos < Src.size() && Src[Pos] != '\n') {
        Text += Src[Pos];
        advance();
      }
      // Trim surrounding spaces.
      while (!Text.empty() && std::isspace(static_cast<unsigned char>(Text.back())))
        Text.pop_back();
      size_t Start = 0;
      while (Start < Text.size() &&
             std::isspace(static_cast<unsigned char>(Text[Start])))
        ++Start;
      return make(Tok::Directive, Text.substr(Start), L);
    }

    if (std::isdigit(static_cast<unsigned char>(C)))
      return lexNumber(L);

    if (isSymbolStart(C))
      return lexSymbol(L);

    advance();
    switch (C) {
    case '(':
      return make(Tok::LParen, "(", L);
    case ')':
      return make(Tok::RParen, ")", L);
    case '[':
      return make(Tok::LBracket, "[", L);
    case ']':
      return make(Tok::RBracket, "]", L);
    case ',':
      return make(Tok::Comma, ",", L);
    case '+':
      return make(Tok::Plus, "+", L);
    case '-':
      return make(Tok::Minus, "-", L);
    case '*':
      return make(Tok::Star, "*", L);
    case '/':
      return make(Tok::Slash, "/", L);
    case '%':
      return make(Tok::Percent, "%", L);
    case '.':
      return make(Tok::Dot, ".", L);
    case '=':
      if (peek() == '=') {
        advance();
        return make(Tok::EqEq, "==", L);
      }
      return make(Tok::Equals, "=", L);
    case '!':
      if (peek() == '=') {
        advance();
        return make(Tok::NotEq, "!=", L);
      }
      return make(Tok::Bang, "!", L);
    case '<':
      if (peek() == '=') {
        advance();
        return make(Tok::Le, "<=", L);
      }
      return make(Tok::Lt, "<", L);
    case '>':
      if (peek() == '=') {
        advance();
        return make(Tok::Ge, ">=", L);
      }
      return make(Tok::Gt, ">", L);
    case '&':
      if (peek() == '&') {
        advance();
        return make(Tok::AmpAmp, "&&", L);
      }
      Diags.error(L, "stray '&' (did you mean '&&'?)");
      return make(Tok::Eof, "", L);
    case '|':
      if (peek() == '|') {
        advance();
        return make(Tok::PipePipe, "||", L);
      }
      Diags.error(L, "stray '|' (did you mean '||'?)");
      return make(Tok::Eof, "", L);
    default:
      Diags.error(L, std::string("unexpected character '") + C + "'");
      return make(Tok::Eof, "", L);
    }
  }

  Token lexNumber(SourceLoc L) {
    std::string Text;
    bool IsInt = true;
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
      Text += peek();
      advance();
    }
    if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
      IsInt = false;
      Text += peek();
      advance();
      while (std::isdigit(static_cast<unsigned char>(peek()))) {
        Text += peek();
        advance();
      }
    }
    if (peek() == 'e' || peek() == 'E') {
      size_t Save = 1;
      if (peek(1) == '+' || peek(1) == '-')
        Save = 2;
      if (std::isdigit(static_cast<unsigned char>(peek(Save)))) {
        IsInt = false;
        Text += peek();
        advance();
        if (peek() == '+' || peek() == '-') {
          Text += peek();
          advance();
        }
        while (std::isdigit(static_cast<unsigned char>(peek()))) {
          Text += peek();
          advance();
        }
      }
    }
    Token T = make(Tok::Number, Text, L);
    T.Num = std::strtod(Text.c_str(), nullptr);
    T.IsInt = IsInt;
    if (IsInt) {
      errno = 0;
      T.Int = std::strtoll(Text.c_str(), nullptr, 10);
      if (errno == ERANGE)
        Diags.error(L, "integer literal out of range: " + Text);
    }
    return T;
  }

  Token lexSymbol(SourceLoc L) {
    std::string Text;
    Text += peek();
    advance();
    for (;;) {
      if (isSymbolChar(peek())) {
        Text += peek();
        advance();
        continue;
      }
      // A '-' continues the symbol only between two letters; this keeps
      // "direct-sum" one token while "n_-1" and "m_-n_" lex as
      // subtractions (pattern variables always end in '_').
      if (peek() == '-' && !Text.empty() &&
          std::isalpha(static_cast<unsigned char>(Text.back())) &&
          std::isalpha(static_cast<unsigned char>(peek(1)))) {
        Text += peek();
        advance();
        continue;
      }
      break;
    }
    return make(Tok::Symbol, Text, L);
  }
};

} // namespace

std::vector<Token> spl::lex(const std::string &Source, Diagnostics &Diags) {
  return LexerImpl(Source, Diags).run();
}
