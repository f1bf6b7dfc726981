package sqloracle

import (
	"strconv"
	"strings"

	"cyclesql/internal/sqlast"
)

// This file is the seed SQL renderer, copied verbatim from sqlast with
// its methods turned into functions. CacheKey and Canonical render
// through it, so the oracle shares no rendering code with the
// production renderer it checks.

// SQL is the seed SelectStmt.SQL: it renders the statement back to SQL
// text by string concatenation, one intermediate string per node.
//
// Deprecated: test oracle only — production code uses
// sqlast.SelectStmt.SQL, which must produce byte-identical output
// (enforced by the differential suites).
func SQL(s *sqlast.SelectStmt) string { return stmtSQL(s) }

// stmtSQL is the seed SelectStmt.SQL.
func stmtSQL(s *sqlast.SelectStmt) string {
	var b strings.Builder
	for i, core := range s.Cores {
		if i > 0 {
			b.WriteByte(' ')
			b.WriteString(string(s.Ops[i-1]))
			b.WriteByte(' ')
		}
		renderCore(core, &b)
	}
	return b.String()
}

func renderCore(c *sqlast.SelectCore, b *strings.Builder) {
	b.WriteString("SELECT ")
	if c.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range c.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(itemSQL(it))
	}
	if c.From != nil {
		b.WriteString(" FROM ")
		b.WriteString(tableRefSQL(c.From.Base))
		for _, j := range c.From.Joins {
			b.WriteByte(' ')
			b.WriteString(string(j.Type))
			b.WriteByte(' ')
			b.WriteString(tableRefSQL(j.Table))
			if j.On != nil {
				b.WriteString(" ON ")
				b.WriteString(exprSQL(j.On))
			}
		}
	}
	if c.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(exprSQL(c.Where))
	}
	if len(c.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range c.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(exprSQL(g))
		}
	}
	if c.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(exprSQL(c.Having))
	}
	if len(c.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range c.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(exprSQL(o.Expr))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if c.Limit != nil {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.FormatInt(*c.Limit, 10))
	}
	if c.Offset != nil {
		b.WriteString(" OFFSET ")
		b.WriteString(strconv.FormatInt(*c.Offset, 10))
	}
}

// itemSQL is the seed SelectItem.SQL.
func itemSQL(it sqlast.SelectItem) string {
	var s string
	switch {
	case it.Star && it.TableStar != "":
		s = it.TableStar + ".*"
	case it.Star:
		s = "*"
	default:
		s = exprSQL(it.Expr)
	}
	if it.Alias != "" {
		s += " AS " + it.Alias
	}
	return s
}

// tableRefSQL is the seed TableRef.SQL.
func tableRefSQL(t sqlast.TableRef) string {
	var s string
	if t.Sub != nil {
		s = "(" + stmtSQL(t.Sub) + ")"
	} else {
		s = t.Name
	}
	if t.Alias != "" {
		s += " AS " + t.Alias
	}
	return s
}

// precedence for minimal parenthesization; higher binds tighter.
func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	default:
		return 6
	}
}

// exprSQL is the seed sqlast.ExprSQL.
func exprSQL(e sqlast.Expr) string {
	if e == nil {
		return ""
	}
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Column
		}
		return x.Column
	case *sqlast.Literal:
		return x.Value.SQLLiteral()
	case *sqlast.Unary:
		if x.Op == "NOT" {
			return "NOT " + maybeParen(x.X, 6)
		}
		return x.Op + maybeParen(x.X, 6)
	case *sqlast.Binary:
		p := precedence(x.Op)
		return maybeParen(x.L, p) + " " + x.Op + " " + maybeParenRight(x.R, p)
	case *sqlast.FuncCall:
		var inner string
		switch {
		case x.Star:
			inner = "*"
		default:
			parts := make([]string, len(x.Args))
			for i, a := range x.Args {
				parts[i] = exprSQL(a)
			}
			inner = strings.Join(parts, ", ")
		}
		if x.Distinct {
			inner = "DISTINCT " + inner
		}
		return x.Name + "(" + inner + ")"
	case *sqlast.InExpr:
		var rhs string
		if x.Sub != nil {
			rhs = "(" + stmtSQL(x.Sub) + ")"
		} else {
			parts := make([]string, len(x.List))
			for i, a := range x.List {
				parts[i] = exprSQL(a)
			}
			rhs = "(" + strings.Join(parts, ", ") + ")"
		}
		op := " IN "
		if x.Not {
			op = " NOT IN "
		}
		return maybeParen(x.X, 3) + op + rhs
	case *sqlast.LikeExpr:
		op := " LIKE "
		if x.Not {
			op = " NOT LIKE "
		}
		return maybeParen(x.X, 3) + op + exprSQL(x.Pattern)
	case *sqlast.BetweenExpr:
		op := " BETWEEN "
		if x.Not {
			op = " NOT BETWEEN "
		}
		return maybeParen(x.X, 3) + op + exprSQL(x.Lo) + " AND " + exprSQL(x.Hi)
	case *sqlast.IsNullExpr:
		op := " IS NULL"
		if x.Not {
			op = " IS NOT NULL"
		}
		return maybeParen(x.X, 3) + op
	case *sqlast.ExistsExpr:
		prefix := "EXISTS "
		if x.Not {
			prefix = "NOT EXISTS "
		}
		return prefix + "(" + stmtSQL(x.Sub) + ")"
	case *sqlast.SubqueryExpr:
		return "(" + stmtSQL(x.Sub) + ")"
	default:
		return "?"
	}
}

func maybeParen(e sqlast.Expr, parentPrec int) string {
	if b, ok := e.(*sqlast.Binary); ok && precedence(b.Op) < parentPrec {
		return "(" + exprSQL(e) + ")"
	}
	return exprSQL(e)
}

// maybeParenRight parenthesizes right operands at equal precedence too, so
// non-associative trees such as a - (b - c) survive the round trip.
func maybeParenRight(e sqlast.Expr, parentPrec int) string {
	if b, ok := e.(*sqlast.Binary); ok && precedence(b.Op) <= parentPrec && parentPrec >= 3 {
		return "(" + exprSQL(e) + ")"
	}
	return maybeParen(e, parentPrec)
}
