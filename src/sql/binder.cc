#include "sql/binder.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace costdb {

struct Binder::Scope {
  // "alias.column" -> type
  std::map<std::string, LogicalType> qualified;
  // "column" -> qualified names carrying it (ambiguity detection)
  std::map<std::string, std::vector<std::string>> unqualified;

  void Add(const std::string& alias, const std::string& column,
           LogicalType type) {
    std::string q = alias + "." + column;
    qualified[q] = type;
    unqualified[column].push_back(q);
  }
};

namespace {
std::string Lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool IsNumeric(LogicalType t) {
  return PhysicalTypeOf(t) != PhysicalType::kString;
}

/// WHERE/ON conjuncts, NOT operands and HAVING must be boolean.
Status RequireBoolean(const ExprPtr& e) {
  if (e->type == LogicalType::kBool) return Status::OK();
  return Status::InvalidArgument("predicate is not boolean: " + e->ToString());
}

/// Every comparison — the binary operators, each IN item, both BETWEEN
/// bounds — compares strings only with strings.
Result<ExprPtr> MakeTypedCompare(CompareOp op, ExprPtr l, ExprPtr r) {
  const bool l_str = PhysicalTypeOf(l->type) == PhysicalType::kString;
  const bool r_str = PhysicalTypeOf(r->type) == PhysicalType::kString;
  if (l_str != r_str) {
    return Status::InvalidArgument("cannot compare " +
                                   std::string(LogicalTypeName(l->type)) +
                                   " with " + LogicalTypeName(r->type));
  }
  return Expr::MakeCompare(op, std::move(l), std::move(r));
}
}  // namespace

Result<BoundQuery> Binder::Bind(const ParsedQuery& parsed) {
  BoundQuery q;
  Scope scope;
  param_types_.assign(parsed.param_count, std::nullopt);
  if (parsed.from.empty()) {
    return Status::InvalidArgument("query has no FROM relations");
  }
  for (const auto& item : parsed.from) {
    BoundRelation rel;
    rel.table = item.table;
    rel.alias = item.alias;
    COSTDB_ASSIGN_OR_RETURN(rel.handle, meta_->GetTable(item.table));
    for (const auto& other : q.relations) {
      if (other.alias == rel.alias) {
        return Status::InvalidArgument("duplicate relation alias: " +
                                       rel.alias);
      }
    }
    for (const auto& col : rel.handle->columns()) {
      scope.Add(rel.alias, col.name, col.type);
    }
    q.relations.push_back(std::move(rel));
  }

  // WHERE and JOIN..ON conditions all become conjuncts of one filter set.
  std::vector<ParsedExprPtr> predicates = parsed.join_conditions;
  if (parsed.where) predicates.push_back(parsed.where);
  for (const auto& p : predicates) {
    ExprPtr bound;
    COSTDB_ASSIGN_OR_RETURN(bound, BindExpr(*p, scope));
    COSTDB_RETURN_NOT_OK(RequireBoolean(bound));
    SplitConjuncts(bound, &q.filters);
  }

  // SELECT list.
  std::vector<ExprPtr> raw_select;
  std::vector<std::string> raw_names;
  if (parsed.select_star) {
    for (const auto& rel : q.relations) {
      for (const auto& col : rel.handle->columns()) {
        raw_select.push_back(
            Expr::MakeColumn(rel.alias + "." + col.name, col.type));
        raw_names.push_back(rel.alias + "." + col.name);
      }
    }
  } else {
    for (const auto& item : parsed.select_items) {
      ExprPtr bound;
      COSTDB_ASSIGN_OR_RETURN(bound, BindExpr(*item.expr, scope));
      std::string name = item.alias;
      if (name.empty()) name = bound->ToString();
      raw_select.push_back(std::move(bound));
      raw_names.push_back(std::move(name));
    }
  }

  // GROUP BY keys must be column references.
  for (const auto& g : parsed.group_by) {
    ExprPtr bound;
    COSTDB_ASSIGN_OR_RETURN(bound, BindExpr(*g, scope));
    if (bound->kind != Expr::Kind::kColumn) {
      return Status::NotSupported("GROUP BY supports plain columns, got: " +
                                  bound->ToString());
    }
    q.group_by.push_back(std::move(bound));
  }

  // Pull aggregates out of SELECT/HAVING/ORDER BY.
  for (size_t i = 0; i < raw_select.size(); ++i) {
    q.select_exprs.push_back(ExtractAggregates(raw_select[i], &q));
    q.select_names.push_back(raw_names[i]);
  }
  if (parsed.having) {
    ExprPtr bound;
    COSTDB_ASSIGN_OR_RETURN(bound, BindExpr(*parsed.having, scope));
    COSTDB_RETURN_NOT_OK(RequireBoolean(bound));
    q.having = ExtractAggregates(bound, &q);
  }
  for (const auto& item : parsed.order_by) {
    BoundOrderItem out;
    out.descending = item.descending;
    // ORDER BY may name a select alias.
    if (item.expr->kind == ParsedExpr::Kind::kIdent &&
        item.expr->parts.size() == 1) {
      auto it = std::find(q.select_names.begin(), q.select_names.end(),
                          item.expr->parts[0]);
      if (it != q.select_names.end()) {
        size_t idx = static_cast<size_t>(it - q.select_names.begin());
        out.expr = Expr::MakeColumn(q.select_names[idx],
                                    q.select_exprs[idx]->type);
        q.order_by.push_back(std::move(out));
        continue;
      }
    }
    ExprPtr bound;
    COSTDB_ASSIGN_OR_RETURN(bound, BindExpr(*item.expr, scope));
    out.expr = ExtractAggregates(bound, &q);
    q.order_by.push_back(std::move(out));
  }
  q.limit = parsed.limit;

  if (q.is_aggregate()) {
    // Every non-aggregate output must be derivable from the group keys.
    auto is_group_col = [&](const std::string& name) {
      for (const auto& g : q.group_by) {
        if (g->column == name) return true;
      }
      for (const auto& n : q.agg_names) {
        if (n == name) return true;
      }
      return false;
    };
    for (const auto& e : q.select_exprs) {
      std::vector<std::string> cols;
      e->CollectColumns(&cols);
      for (const auto& c : cols) {
        if (!is_group_col(c)) {
          return Status::InvalidArgument(
              "column " + c + " must appear in GROUP BY or an aggregate");
        }
      }
    }
  }

  // Every placeholder must have adopted a type from the expression it
  // appears in; an unanchored '?' has no executable meaning.
  q.param_types.reserve(param_types_.size());
  for (size_t i = 0; i < param_types_.size(); ++i) {
    if (!param_types_[i].has_value()) {
      return Status::InvalidArgument(
          "cannot infer the type of parameter ?" + std::to_string(i) +
          "; compare it against a column or literal");
    }
    q.param_types.push_back(*param_types_[i]);
  }
  return q;
}

Result<BoundQuery> Binder::BindSql(const std::string& sql) {
  ParsedQuery parsed;
  COSTDB_ASSIGN_OR_RETURN(parsed, ParseQuery(sql));
  return Bind(parsed);
}

bool Binder::IsUnresolvedParam(const ExprPtr& e) const {
  return e != nullptr && e->kind == Expr::Kind::kParam &&
         e->param_index >= 0 &&
         static_cast<size_t>(e->param_index) < param_types_.size() &&
         !param_types_[e->param_index].has_value();
}

void Binder::ResolveParam(const ExprPtr& e, LogicalType type) {
  e->type = type;
  param_types_[e->param_index] = type;
}

Status Binder::UnifyParamTypes(const ExprPtr& a, const ExprPtr& b) {
  const bool ua = IsUnresolvedParam(a);
  const bool ub = IsUnresolvedParam(b);
  // Two unresolved placeholders cannot anchor each other; stay silent and
  // let the end-of-bind check report whichever never finds an anchor.
  if (ua == ub) return Status::OK();
  if (ua) ResolveParam(a, b->type);
  if (ub) ResolveParam(b, a->type);
  return Status::OK();
}

Result<ExprPtr> Binder::BindIdent(const ParsedExpr& e, const Scope& scope) {
  if (e.parts.size() == 2) {
    std::string q = e.parts[0] + "." + e.parts[1];
    auto it = scope.qualified.find(q);
    if (it == scope.qualified.end()) {
      return Status::NotFound("unknown column: " + q);
    }
    return Expr::MakeColumn(q, it->second);
  }
  if (e.parts.size() == 1) {
    auto it = scope.unqualified.find(e.parts[0]);
    if (it == scope.unqualified.end()) {
      return Status::NotFound("unknown column: " + e.parts[0]);
    }
    if (it->second.size() > 1) {
      return Status::InvalidArgument("ambiguous column: " + e.parts[0]);
    }
    const std::string& q = it->second[0];
    return Expr::MakeColumn(q, scope.qualified.at(q));
  }
  return Status::InvalidArgument("unsupported identifier depth");
}

Result<ExprPtr> Binder::BindExpr(const ParsedExpr& e, const Scope& scope) {
  switch (e.kind) {
    case ParsedExpr::Kind::kIdent:
      return BindIdent(e, scope);
    case ParsedExpr::Kind::kInt:
      return Expr::MakeConstant(Value(e.int_val), LogicalType::kInt64);
    case ParsedExpr::Kind::kFloat:
      return Expr::MakeConstant(Value(e.float_val), LogicalType::kDouble);
    case ParsedExpr::Kind::kString:
      return Expr::MakeConstant(Value(e.str_val), LogicalType::kVarchar);
    case ParsedExpr::Kind::kDate: {
      int64_t days = 0;
      if (!ParseDate(e.str_val, &days)) {
        return Status::InvalidArgument("malformed date: " + e.str_val);
      }
      return Expr::MakeConstant(Value(days), LogicalType::kDate);
    }
    case ParsedExpr::Kind::kParam:
      // Type is inferred from the surrounding expression (see
      // UnifyParamTypes); kInt64 is only the pre-inference placeholder.
      return Expr::MakeParam(static_cast<int>(e.int_val), LogicalType::kInt64);
    case ParsedExpr::Kind::kNot: {
      ExprPtr child;
      COSTDB_ASSIGN_OR_RETURN(child, BindExpr(*e.children[0], scope));
      COSTDB_RETURN_NOT_OK(RequireBoolean(child));
      return Expr::MakeNot(std::move(child));
    }
    case ParsedExpr::Kind::kBinary: {
      const std::string op = Lower(e.str_val);
      ExprPtr l, r;
      COSTDB_ASSIGN_OR_RETURN(l, BindExpr(*e.children[0], scope));
      COSTDB_ASSIGN_OR_RETURN(r, BindExpr(*e.children[1], scope));
      COSTDB_RETURN_NOT_OK(UnifyParamTypes(l, r));
      if (op == "and") return Expr::MakeAnd({std::move(l), std::move(r)});
      if (op == "or") return Expr::MakeOr({std::move(l), std::move(r)});
      if (op == "like") {
        if (IsUnresolvedParam(l)) ResolveParam(l, LogicalType::kVarchar);
        // The LIKE kernels read string payloads only.
        if (l->type != LogicalType::kVarchar) {
          return Status::InvalidArgument(
              std::string("LIKE requires a VARCHAR operand, got ") +
              LogicalTypeName(l->type));
        }
        if (r->kind != Expr::Kind::kConstant || !r->constant.is_string()) {
          return Status::NotSupported("LIKE requires a string literal pattern");
        }
        char escape = '\0';
        if (e.children.size() > 2) {
          ExprPtr esc;
          COSTDB_ASSIGN_OR_RETURN(esc, BindExpr(*e.children[2], scope));
          if (esc->kind != Expr::Kind::kConstant ||
              !esc->constant.is_string() ||
              esc->constant.AsString().size() != 1) {
            return Status::InvalidArgument(
                "ESCAPE requires a single-character string literal");
          }
          escape = esc->constant.AsString()[0];
          if (escape == '\0') {
            return Status::InvalidArgument("ESCAPE character cannot be NUL");
          }
          // SQL-standard strictness at bind time: in the pattern, the
          // escape character must be followed by %, _, or itself.
          const std::string& pattern = r->constant.AsString();
          for (size_t i = 0; i < pattern.size(); ++i) {
            if (pattern[i] != escape) continue;
            if (i + 1 >= pattern.size() ||
                (pattern[i + 1] != '%' && pattern[i + 1] != '_' &&
                 pattern[i + 1] != escape)) {
              return Status::InvalidArgument(
                  "LIKE pattern escape character must precede %, _, or "
                  "itself");
            }
            ++i;  // skip the escaped character
          }
        }
        return Expr::MakeLike(std::move(l), r->constant.AsString(), escape);
      }
      if (op == "+" || op == "-" || op == "*" || op == "/") {
        if (!IsNumeric(l->type) || !IsNumeric(r->type)) {
          return Status::InvalidArgument("arithmetic requires numeric operands");
        }
        return Expr::MakeArith(op[0], std::move(l), std::move(r));
      }
      CompareOp cmp;
      if (op == "=") {
        cmp = CompareOp::kEq;
      } else if (op == "<>") {
        cmp = CompareOp::kNe;
      } else if (op == "<") {
        cmp = CompareOp::kLt;
      } else if (op == "<=") {
        cmp = CompareOp::kLe;
      } else if (op == ">") {
        cmp = CompareOp::kGt;
      } else if (op == ">=") {
        cmp = CompareOp::kGe;
      } else {
        return Status::NotSupported("operator " + e.str_val);
      }
      return MakeTypedCompare(cmp, std::move(l), std::move(r));
    }
    case ParsedExpr::Kind::kIn: {
      ExprPtr input;
      COSTDB_ASSIGN_OR_RETURN(input, BindExpr(*e.children[0], scope));
      // Bind every item before desugaring: placeholder types must settle
      // before input->Clone() snapshots the input expression.
      std::vector<ExprPtr> items;
      for (size_t i = 1; i < e.children.size(); ++i) {
        ExprPtr item;
        COSTDB_ASSIGN_OR_RETURN(item, BindExpr(*e.children[i], scope));
        items.push_back(std::move(item));
      }
      if (items.empty()) {
        return Status::InvalidArgument("empty IN list");
      }
      // Two passes: the first may anchor the input off a literal item, the
      // second back-fills placeholder items off the (now typed) input.
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& item : items) {
          COSTDB_RETURN_NOT_OK(UnifyParamTypes(input, item));
        }
      }
      std::vector<ExprPtr> options;
      for (auto& item : items) {
        ExprPtr option;
        COSTDB_ASSIGN_OR_RETURN(
            option,
            MakeTypedCompare(CompareOp::kEq, input->Clone(), std::move(item)));
        options.push_back(std::move(option));
      }
      if (options.size() == 1) return options[0];
      return Expr::MakeOr(std::move(options));
    }
    case ParsedExpr::Kind::kBetween: {
      ExprPtr input, lo, hi;
      COSTDB_ASSIGN_OR_RETURN(input, BindExpr(*e.children[0], scope));
      COSTDB_ASSIGN_OR_RETURN(lo, BindExpr(*e.children[1], scope));
      COSTDB_ASSIGN_OR_RETURN(hi, BindExpr(*e.children[2], scope));
      // Second input/lo pass: hi may have anchored a placeholder input.
      COSTDB_RETURN_NOT_OK(UnifyParamTypes(input, lo));
      COSTDB_RETURN_NOT_OK(UnifyParamTypes(input, hi));
      COSTDB_RETURN_NOT_OK(UnifyParamTypes(input, lo));
      ExprPtr ge, le;
      COSTDB_ASSIGN_OR_RETURN(
          ge, MakeTypedCompare(CompareOp::kGe, input->Clone(), std::move(lo)));
      COSTDB_ASSIGN_OR_RETURN(le, MakeTypedCompare(CompareOp::kLe,
                                                   std::move(input),
                                                   std::move(hi)));
      return Expr::MakeAnd({std::move(ge), std::move(le)});
    }
    case ParsedExpr::Kind::kFunc: {
      const std::string name = Lower(e.str_val);
      AggFunc agg;
      if (name == "count") {
        agg = e.star_arg || e.children.empty() ? AggFunc::kCountStar
                                               : AggFunc::kCount;
      } else if (name == "sum") {
        agg = AggFunc::kSum;
      } else if (name == "min") {
        agg = AggFunc::kMin;
      } else if (name == "max") {
        agg = AggFunc::kMax;
      } else if (name == "avg") {
        agg = AggFunc::kAvg;
      } else {
        return Status::NotSupported("function " + e.str_val);
      }
      ExprPtr arg;
      if (agg != AggFunc::kCountStar) {
        if (e.children.size() != 1) {
          return Status::InvalidArgument(name + " takes exactly one argument");
        }
        COSTDB_ASSIGN_OR_RETURN(arg, BindExpr(*e.children[0], scope));
        if ((agg == AggFunc::kSum || agg == AggFunc::kAvg) &&
            !IsNumeric(arg->type)) {
          return Status::InvalidArgument(name + " requires a numeric argument");
        }
      }
      return Expr::MakeAgg(agg, std::move(arg));
    }
  }
  return Status::Internal("unreachable parse node");
}

ExprPtr Binder::ExtractAggregates(const ExprPtr& e, BoundQuery* q) {
  if (!e) return e;
  if (e->kind == Expr::Kind::kAgg) {
    // Deduplicate structurally identical aggregates.
    std::string repr = e->ToString();
    for (size_t i = 0; i < q->aggregates.size(); ++i) {
      if (q->aggregates[i]->ToString() == repr) {
        return Expr::MakeColumn(q->agg_names[i], q->aggregates[i]->type);
      }
    }
    std::string name = "agg_" + std::to_string(q->aggregates.size());
    q->aggregates.push_back(e);
    q->agg_names.push_back(name);
    return Expr::MakeColumn(name, e->type);
  }
  auto copy = std::make_shared<Expr>(*e);
  for (auto& c : copy->children) {
    c = ExtractAggregates(c, q);
  }
  return copy;
}

}  // namespace costdb
