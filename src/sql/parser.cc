#include "sql/parser.h"

#include <cstdint>

namespace costdb {

namespace {

/// Recursive-descent parser over the token stream. Grammar (simplified):
///   query      := SELECT select_list FROM from_list [WHERE expr]
///                 [GROUP BY expr_list] [HAVING expr]
///                 [ORDER BY order_list] [LIMIT int] [';']
///   expr       := or_expr
///   or_expr    := and_expr (OR and_expr)*
///   and_expr   := not_expr (AND not_expr)*
///   not_expr   := [NOT] cmp_expr
///   cmp_expr   := add_expr [(=|<>|<|<=|>|>=) add_expr
///                           | LIKE add_expr [ESCAPE 'c']
///                           | IN '(' expr_list ')'
///                           | BETWEEN add_expr AND add_expr]
///   add_expr   := mul_expr (('+'|'-') mul_expr)*
///   mul_expr   := unary (('*'|'/') unary)*
///   unary      := ['-'] primary
///   primary    := literal | DATE 'str' | func '(' [*|expr_list] ')'
///                 | qualified_ident | '(' expr ')'
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Parse() {
    ParsedQuery q;
    COSTDB_RETURN_NOT_OK(Expect("SELECT"));
    COSTDB_RETURN_NOT_OK(ParseSelectList(&q));
    COSTDB_RETURN_NOT_OK(Expect("FROM"));
    COSTDB_RETURN_NOT_OK(ParseFromList(&q));
    if (AcceptKeyword("WHERE")) {
      COSTDB_ASSIGN_OR_RETURN(q.where, ParseExpr());
    }
    if (AcceptKeyword("GROUP")) {
      COSTDB_RETURN_NOT_OK(Expect("BY"));
      do {
        ParsedExprPtr e;
        COSTDB_ASSIGN_OR_RETURN(e, ParseExpr());
        q.group_by.push_back(std::move(e));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("HAVING")) {
      COSTDB_ASSIGN_OR_RETURN(q.having, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      COSTDB_RETURN_NOT_OK(Expect("BY"));
      do {
        OrderItem item;
        COSTDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        q.order_by.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("LIMIT")) {
      if (Current().kind != TokenKind::kInt || Current().int_val < 0) {
        return ErrorHere("expected integer after LIMIT");
      }
      q.limit = Current().int_val;
      Advance();
    }
    AcceptSymbol(";");
    if (Current().kind != TokenKind::kEnd) {
      return ErrorHere("unexpected trailing input");
    }
    q.param_count = param_count_;
    return q;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  bool AcceptKeyword(const char* kw) {
    if (TokenIs(Current(), kw)) {
      Advance();
      return true;
    }
    return false;
  }

  bool AcceptSymbol(const char* sym) {
    if (Current().kind == TokenKind::kSymbol && Current().text == sym) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument(std::string("expected ") + kw +
                                     " near offset " +
                                     std::to_string(Current().offset));
    }
    return Status::OK();
  }

  Status ExpectSymbol(const char* sym) {
    if (!AcceptSymbol(sym)) {
      return Status::InvalidArgument(std::string("expected '") + sym +
                                     "' near offset " +
                                     std::to_string(Current().offset));
    }
    return Status::OK();
  }

  Status ErrorHere(const std::string& msg) {
    return Status::InvalidArgument(msg + " near offset " +
                                   std::to_string(Current().offset));
  }

  Status ParseSelectList(ParsedQuery* q) {
    if (AcceptSymbol("*")) {
      q->select_star = true;
      return Status::OK();
    }
    do {
      SelectItem item;
      COSTDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        if (Current().kind != TokenKind::kIdent) {
          return ErrorHere("expected alias after AS");
        }
        item.alias = Current().text;
        Advance();
      } else if (Current().kind == TokenKind::kIdent &&
                 !IsClauseKeyword(Current())) {
        item.alias = Current().text;
        Advance();
      }
      q->select_items.push_back(std::move(item));
    } while (AcceptSymbol(","));
    return Status::OK();
  }

  static bool IsClauseKeyword(const Token& t) {
    for (const char* kw : {"FROM", "WHERE", "GROUP", "HAVING", "ORDER",
                           "LIMIT", "AND", "OR", "AS", "ASC", "DESC", "ON",
                           "JOIN", "INNER", "BY"}) {
      if (TokenIs(t, kw)) return true;
    }
    return false;
  }

  Status ParseFromList(ParsedQuery* q) {
    COSTDB_RETURN_NOT_OK(ParseFromItem(q));
    while (true) {
      if (AcceptSymbol(",")) {
        COSTDB_RETURN_NOT_OK(ParseFromItem(q));
        continue;
      }
      bool is_join = false;
      if (TokenIs(Current(), "INNER")) {
        Advance();
        COSTDB_RETURN_NOT_OK(Expect("JOIN"));
        is_join = true;
      } else if (TokenIs(Current(), "JOIN")) {
        Advance();
        is_join = true;
      }
      if (!is_join) break;
      COSTDB_RETURN_NOT_OK(ParseFromItem(q));
      COSTDB_RETURN_NOT_OK(Expect("ON"));
      ParsedExprPtr cond;
      COSTDB_ASSIGN_OR_RETURN(cond, ParseExpr());
      q->join_conditions.push_back(std::move(cond));
    }
    return Status::OK();
  }

  Status ParseFromItem(ParsedQuery* q) {
    if (Current().kind != TokenKind::kIdent) {
      return ErrorHere("expected table name");
    }
    FromItem item;
    item.table = Current().text;
    Advance();
    AcceptKeyword("AS");
    if (Current().kind == TokenKind::kIdent && !IsClauseKeyword(Current())) {
      item.alias = Current().text;
      Advance();
    } else {
      item.alias = item.table;
    }
    q->from.push_back(std::move(item));
    return Status::OK();
  }

  Result<ParsedExprPtr> ParseExpr() { return ParseOr(); }

  Result<ParsedExprPtr> ParseOr() {
    ParsedExprPtr left;
    COSTDB_ASSIGN_OR_RETURN(left, ParseAnd());
    while (TokenIs(Current(), "OR")) {
      Advance();
      ParsedExprPtr right;
      COSTDB_ASSIGN_OR_RETURN(right, ParseAnd());
      left = MakeBinary("OR", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseAnd() {
    ParsedExprPtr left;
    COSTDB_ASSIGN_OR_RETURN(left, ParseNot());
    while (TokenIs(Current(), "AND")) {
      Advance();
      ParsedExprPtr right;
      COSTDB_ASSIGN_OR_RETURN(right, ParseNot());
      left = MakeBinary("AND", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseNot() {
    if (TokenIs(Current(), "NOT")) {
      Advance();
      ParsedExprPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, ParseNot());
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kNot;
      e->children = {std::move(child)};
      return e;
    }
    return ParseComparison();
  }

  Result<ParsedExprPtr> ParseComparison() {
    ParsedExprPtr left;
    COSTDB_ASSIGN_OR_RETURN(left, ParseAdditive());
    if (Current().kind == TokenKind::kSymbol) {
      const std::string& s = Current().text;
      if (s == "=" || s == "<>" || s == "<" || s == "<=" || s == ">" ||
          s == ">=") {
        std::string op = s;
        Advance();
        ParsedExprPtr right;
        COSTDB_ASSIGN_OR_RETURN(right, ParseAdditive());
        return MakeBinary(op, std::move(left), std::move(right));
      }
    }
    if (TokenIs(Current(), "LIKE")) {
      Advance();
      ParsedExprPtr right;
      COSTDB_ASSIGN_OR_RETURN(right, ParseAdditive());
      ParsedExprPtr like = MakeBinary("LIKE", std::move(left),
                                      std::move(right));
      if (TokenIs(Current(), "ESCAPE")) {
        Advance();
        // A third child carries the escape character; the binder validates
        // it is a single-character string literal.
        ParsedExprPtr esc;
        COSTDB_ASSIGN_OR_RETURN(esc, ParsePrimary());
        like->children.push_back(std::move(esc));
      }
      return like;
    }
    if (TokenIs(Current(), "IN")) {
      Advance();
      COSTDB_RETURN_NOT_OK(ExpectSymbol("("));
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kIn;
      e->children.push_back(std::move(left));
      do {
        ParsedExprPtr item;
        COSTDB_ASSIGN_OR_RETURN(item, ParseExpr());
        e->children.push_back(std::move(item));
      } while (AcceptSymbol(","));
      COSTDB_RETURN_NOT_OK(ExpectSymbol(")"));
      return ParsedExprPtr(e);
    }
    if (TokenIs(Current(), "BETWEEN")) {
      Advance();
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kBetween;
      e->children.push_back(std::move(left));
      ParsedExprPtr lo;
      COSTDB_ASSIGN_OR_RETURN(lo, ParseAdditive());
      e->children.push_back(std::move(lo));
      COSTDB_RETURN_NOT_OK(Expect("AND"));
      ParsedExprPtr hi;
      COSTDB_ASSIGN_OR_RETURN(hi, ParseAdditive());
      e->children.push_back(std::move(hi));
      return ParsedExprPtr(e);
    }
    return left;
  }

  Result<ParsedExprPtr> ParseAdditive() {
    ParsedExprPtr left;
    COSTDB_ASSIGN_OR_RETURN(left, ParseMultiplicative());
    while (Current().kind == TokenKind::kSymbol &&
           (Current().text == "+" || Current().text == "-")) {
      std::string op = Current().text;
      Advance();
      ParsedExprPtr right;
      COSTDB_ASSIGN_OR_RETURN(right, ParseMultiplicative());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseMultiplicative() {
    ParsedExprPtr left;
    COSTDB_ASSIGN_OR_RETURN(left, ParseUnary());
    while (Current().kind == TokenKind::kSymbol &&
           (Current().text == "*" || Current().text == "/")) {
      std::string op = Current().text;
      Advance();
      ParsedExprPtr right;
      COSTDB_ASSIGN_OR_RETURN(right, ParseUnary());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParsedExprPtr> ParseUnary() {
    if (Current().kind == TokenKind::kSymbol && Current().text == "-") {
      Advance();
      if (Current().kind == TokenKind::kInt && Current().int_val == INT64_MIN) {
        // -9223372036854775808: the lexer's INT64_MIN magnitude token.
        auto e = std::make_shared<ParsedExpr>();
        e->kind = ParsedExpr::Kind::kInt;
        e->int_val = INT64_MIN;
        Advance();
        return ParsedExprPtr(e);
      }
      ParsedExprPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, ParseUnary());
      // Fold into literal when possible, else 0 - child.
      if (child->kind == ParsedExpr::Kind::kInt) {
        if (child->int_val == INT64_MIN) {
          return ErrorHere("numeric literal out of range");
        }
        child->int_val = -child->int_val;
        return child;
      }
      if (child->kind == ParsedExpr::Kind::kFloat) {
        child->float_val = -child->float_val;
        return child;
      }
      auto zero = std::make_shared<ParsedExpr>();
      zero->kind = ParsedExpr::Kind::kInt;
      zero->int_val = 0;
      return MakeBinary("-", std::move(zero), std::move(child));
    }
    return ParsePrimary();
  }

  Result<ParsedExprPtr> ParsePrimary() {
    const Token& t = Current();
    if (t.kind == TokenKind::kInt) {
      if (t.int_val < 0) return ErrorHere("numeric literal out of range");
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kInt;
      e->int_val = t.int_val;
      Advance();
      return ParsedExprPtr(e);
    }
    if (t.kind == TokenKind::kFloat) {
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kFloat;
      e->float_val = t.float_val;
      Advance();
      return ParsedExprPtr(e);
    }
    if (t.kind == TokenKind::kString) {
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kString;
      e->str_val = t.text;
      Advance();
      return ParsedExprPtr(e);
    }
    if (TokenIs(t, "DATE")) {
      Advance();
      if (Current().kind != TokenKind::kString) {
        return ErrorHere("expected 'YYYY-MM-DD' after DATE");
      }
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kDate;
      e->str_val = Current().text;
      Advance();
      return ParsedExprPtr(e);
    }
    if (AcceptSymbol("?")) {
      // Prepared-statement placeholder; ordinals are assigned in SQL text
      // order, so Execute(params...) binds positionally.
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kParam;
      e->int_val = static_cast<int64_t>(param_count_++);
      return ParsedExprPtr(e);
    }
    if (AcceptSymbol("(")) {
      ParsedExprPtr inner;
      COSTDB_ASSIGN_OR_RETURN(inner, ParseExpr());
      COSTDB_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    if (t.kind == TokenKind::kIdent) {
      std::string first = t.text;
      Advance();
      if (AcceptSymbol("(")) {  // function call
        auto e = std::make_shared<ParsedExpr>();
        e->kind = ParsedExpr::Kind::kFunc;
        e->str_val = first;
        if (AcceptSymbol("*")) {
          e->star_arg = true;
        } else if (!AcceptSymbol(")")) {
          do {
            ParsedExprPtr arg;
            COSTDB_ASSIGN_OR_RETURN(arg, ParseExpr());
            e->children.push_back(std::move(arg));
          } while (AcceptSymbol(","));
          COSTDB_RETURN_NOT_OK(ExpectSymbol(")"));
          return ParsedExprPtr(e);
        } else {
          return ParsedExprPtr(e);  // empty arg list
        }
        COSTDB_RETURN_NOT_OK(ExpectSymbol(")"));
        return ParsedExprPtr(e);
      }
      auto e = std::make_shared<ParsedExpr>();
      e->kind = ParsedExpr::Kind::kIdent;
      e->parts.push_back(first);
      while (AcceptSymbol(".")) {
        if (Current().kind != TokenKind::kIdent) {
          return ErrorHere("expected identifier after '.'");
        }
        e->parts.push_back(Current().text);
        Advance();
      }
      return ParsedExprPtr(e);
    }
    return ErrorHere("unexpected token '" + t.text + "'");
  }

  static ParsedExprPtr MakeBinary(std::string op, ParsedExprPtr l,
                                  ParsedExprPtr r) {
    auto e = std::make_shared<ParsedExpr>();
    e->kind = ParsedExpr::Kind::kBinary;
    e->str_val = std::move(op);
    e->children = {std::move(l), std::move(r)};
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t param_count_ = 0;
};

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& sql) {
  std::vector<Token> tokens;
  COSTDB_ASSIGN_OR_RETURN(tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace costdb
