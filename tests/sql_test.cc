#include <gtest/gtest.h>

#include "sql/binder.h"

namespace costdb {
namespace {

TEST(LexerTest, BasicTokens) {
  auto r = Tokenize("SELECT a.b, 42, 3.5, 'it''s' FROM t WHERE x <= 7;");
  ASSERT_TRUE(r.ok());
  const auto& toks = *r;
  EXPECT_TRUE(TokenIs(toks[0], "select"));
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_EQ(toks[2].text, ".");
  EXPECT_EQ(toks[3].text, "b");
  EXPECT_EQ(toks[5].int_val, 42);
  EXPECT_DOUBLE_EQ(toks[7].float_val, 3.5);
  EXPECT_EQ(toks[9].text, "it's");
  EXPECT_EQ(toks.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, TwoCharOperators) {
  auto r = Tokenize("a <= b >= c <> d != e");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[1].text, "<=");
  EXPECT_EQ((*r)[3].text, ">=");
  EXPECT_EQ((*r)[5].text, "<>");
  EXPECT_EQ((*r)[7].text, "<>");  // != normalized
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("SELECT 'oops").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("SELECT @x").status().IsInvalidArgument());
  // Literals past int64 / double range are errors, not exceptions.
  EXPECT_TRUE(
      Tokenize("SELECT 99999999999999999999").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("SELECT " + std::string(400, '9') + ".5")
                  .status()
                  .IsInvalidArgument());
  auto max = Tokenize("SELECT 9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ((*max)[1].int_val, INT64_MAX);
  // 2^63 lexes only as INT64_MIN's magnitude; one past it never lexes.
  auto magnitude = Tokenize("SELECT 9223372036854775808");
  ASSERT_TRUE(magnitude.ok());
  EXPECT_EQ((*magnitude)[1].int_val, INT64_MIN);
  EXPECT_TRUE(
      Tokenize("SELECT 9223372036854775809").status().IsInvalidArgument());
  EXPECT_TRUE(
      Tokenize("SELECT -9223372036854775809").status().IsInvalidArgument());
}

TEST(ParserTest, Int64MinFoldsOnlyUnderUnaryMinus) {
  for (const char* sql : {"SELECT -9223372036854775808 FROM t",
                          "SELECT - 9223372036854775808 FROM t"}) {
    auto r = ParseQuery(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    ASSERT_EQ(r->select_items.size(), 1u);
    EXPECT_EQ(r->select_items[0].expr->int_val, INT64_MIN) << sql;
  }
  for (const char* sql : {"SELECT 9223372036854775808 FROM t",
                          "SELECT - -9223372036854775808 FROM t",
                          "SELECT 1 - 9223372036854775808 FROM t",
                          "SELECT a FROM t LIMIT 9223372036854775808"}) {
    auto r = ParseQuery(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

TEST(ParserTest, SimpleSelect) {
  auto r = ParseQuery("SELECT a, b FROM t WHERE a > 5 ORDER BY b DESC LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->select_items.size(), 2u);
  EXPECT_EQ(r->from.size(), 1u);
  EXPECT_EQ(r->from[0].table, "t");
  ASSERT_TRUE(r->where != nullptr);
  ASSERT_EQ(r->order_by.size(), 1u);
  EXPECT_TRUE(r->order_by[0].descending);
  EXPECT_EQ(r->limit, 3);
}

TEST(ParserTest, SelectStarAndAliases) {
  auto r = ParseQuery("SELECT * FROM orders o, customer AS c");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->select_star);
  ASSERT_EQ(r->from.size(), 2u);
  EXPECT_EQ(r->from[0].alias, "o");
  EXPECT_EQ(r->from[1].alias, "c");
}

TEST(ParserTest, JoinSyntax) {
  auto r = ParseQuery(
      "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id "
      "INNER JOIN nation n ON c.nid = n.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->from.size(), 3u);
  EXPECT_EQ(r->join_conditions.size(), 2u);
}

TEST(ParserTest, GroupByHaving) {
  auto r = ParseQuery(
      "SELECT k, sum(v) AS total FROM t GROUP BY k HAVING sum(v) > 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->group_by.size(), 1u);
  ASSERT_TRUE(r->having != nullptr);
  EXPECT_EQ(r->select_items[1].alias, "total");
}

TEST(ParserTest, InBetweenLikeDate) {
  auto r = ParseQuery(
      "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 5 AND 9 "
      "AND s LIKE 'abc%' AND d >= DATE '1995-01-01'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ParserTest, LikeEscapeClause) {
  auto r = ParseQuery("SELECT a FROM t WHERE s LIKE '50!%%' ESCAPE '!'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->where, nullptr);
  EXPECT_EQ(r->where->kind, ParsedExpr::Kind::kBinary);
  EXPECT_EQ(r->where->str_val, "LIKE");
  ASSERT_EQ(r->where->children.size(), 3u);  // input, pattern, escape
  EXPECT_EQ(r->where->children[2]->kind, ParsedExpr::Kind::kString);
  EXPECT_EQ(r->where->children[2]->str_val, "!");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto r = ParseQuery("SELECT a + b * c FROM t");
  ASSERT_TRUE(r.ok());
  const ParsedExpr& e = *r->select_items[0].expr;
  ASSERT_EQ(e.kind, ParsedExpr::Kind::kBinary);
  EXPECT_EQ(e.str_val, "+");
  EXPECT_EQ(e.children[1]->str_val, "*");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("SELECT FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT a t").ok());  // missing FROM
  EXPECT_FALSE(ParseQuery("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM t extra junk").ok());
}

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto orders = std::make_shared<Table>(
        "orders", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                         {"cid", LogicalType::kInt64},
                                         {"amount", LogicalType::kDouble},
                                         {"odate", LogicalType::kDate}});
    auto customer = std::make_shared<Table>(
        "customer", std::vector<ColumnDef>{{"id", LogicalType::kInt64},
                                           {"name", LogicalType::kVarchar}});
    meta_.RegisterTable(orders);
    meta_.RegisterTable(customer);
  }

  MetadataService meta_;
};

TEST_F(BinderTest, ResolvesQualifiedAndUnqualified) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT o.amount, odate FROM orders o");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_exprs[0]->column, "o.amount");
  EXPECT_EQ(q->select_exprs[0]->type, LogicalType::kDouble);
  EXPECT_EQ(q->select_exprs[1]->column, "o.odate");
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT id FROM orders, customer");
  EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status().ToString();
}

TEST_F(BinderTest, UnknownTableAndColumn) {
  Binder binder(&meta_);
  EXPECT_TRUE(binder.BindSql("SELECT x FROM nope").status().IsNotFound());
  EXPECT_TRUE(
      binder.BindSql("SELECT missing FROM orders").status().IsNotFound());
}

TEST_F(BinderTest, JoinConditionsBecomeFilters) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT o.id FROM orders o JOIN customer c ON o.cid = c.id "
      "WHERE o.amount > 10 AND c.name = 'bob'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->relations.size(), 2u);
  EXPECT_EQ(q->filters.size(), 3u);  // join cond + two WHERE conjuncts
}

TEST_F(BinderTest, AggregateExtraction) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT cid, sum(amount) AS total, count(*) FROM orders "
      "GROUP BY cid HAVING sum(amount) > 100 ORDER BY total DESC");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->is_aggregate());
  // sum(amount) deduplicated between SELECT and HAVING.
  EXPECT_EQ(q->aggregates.size(), 2u);
  EXPECT_EQ(q->group_by.size(), 1u);
  ASSERT_TRUE(q->having != nullptr);
  // Select list: group col + two agg refs.
  EXPECT_EQ(q->select_exprs[0]->column, "orders.cid");
  EXPECT_EQ(q->select_exprs[1]->kind, Expr::Kind::kColumn);
}

TEST_F(BinderTest, LikeEscapeBinding) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT name FROM customer WHERE name LIKE '100!%%' ESCAPE '!'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->filters.size(), 1u);
  const ExprPtr& f = q->filters[0];
  EXPECT_EQ(f->kind, Expr::Kind::kLike);
  EXPECT_EQ(f->like_escape, '!');
  EXPECT_NE(f->ToString().find("ESCAPE '!'"), std::string::npos)
      << f->ToString();
  // Without the clause the escape stays unset.
  auto plain = binder.BindSql("SELECT name FROM customer WHERE name LIKE 'a%'");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->filters[0]->like_escape, '\0');
}

TEST_F(BinderTest, LikeEscapeErrors) {
  Binder binder(&meta_);
  // Escape must be one character.
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'a%' "
                           "ESCAPE '!!'")
                  .status()
                  .IsInvalidArgument());
  // In the pattern, the escape must precede %, _, or itself.
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'a!b' "
                           "ESCAPE '!'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'ab!' "
                           "ESCAPE '!'")
                  .status()
                  .IsInvalidArgument());
  // An escaped escape is fine.
  EXPECT_TRUE(binder
                  .BindSql("SELECT name FROM customer WHERE name LIKE 'a!!b' "
                           "ESCAPE '!'")
                  .ok());
}

TEST_F(BinderTest, NonGroupedColumnRejected) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT amount, count(*) FROM orders GROUP BY cid");
  EXPECT_TRUE(q.status().IsInvalidArgument()) << q.status().ToString();
}

TEST_F(BinderTest, TypeMismatchRejected) {
  Binder binder(&meta_);
  EXPECT_FALSE(binder.BindSql("SELECT id FROM orders WHERE id = 'x'").ok());
  EXPECT_FALSE(binder.BindSql("SELECT sum(name) FROM customer").ok());
}

TEST_F(BinderTest, DesugarsInAndBetween) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT id FROM orders WHERE cid IN (1,2) AND amount BETWEEN 5 AND 9");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // IN -> OR (1 conjunct), BETWEEN -> 2 conjuncts.
  EXPECT_EQ(q->filters.size(), 3u);
  EXPECT_EQ(q->filters[0]->kind, Expr::Kind::kOr);
}

TEST_F(BinderTest, DateLiteralBinding) {
  Binder binder(&meta_);
  auto q = binder.BindSql(
      "SELECT id FROM orders WHERE odate < DATE '2020-06-01'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::string col;
  CompareOp op;
  Value constant;
  ASSERT_TRUE(MatchColumnCompareConstant(q->filters[0], &col, &op, &constant));
  EXPECT_EQ(col, "orders.odate");
  EXPECT_TRUE(constant.is_int());
}

TEST_F(BinderTest, SelectStarExpandsAllRelations) {
  Binder binder(&meta_);
  auto q = binder.BindSql("SELECT * FROM orders, customer");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select_exprs.size(), 6u);
}

}  // namespace
}  // namespace costdb
