package explain

import (
	"strings"

	"cyclesql/internal/provenance"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
)

// labelKind classifies a query unit's semantics label.
type labelKind uint8

// Label kinds produced by the clause-by-clause decomposition.
const (
	kindProjection labelKind = iota // plain SELECT column
	kindAggregate                   // SELECT aggregate
	kindFilter                      // WHERE comparison on a column
	kindMembership                  // IN / NOT IN
	kindPattern                     // LIKE
	kindRange                       // BETWEEN
	kindNullCheck                   // IS [NOT] NULL
	kindExists                      // EXISTS subquery
	kindGroup                       // GROUP BY key
	kindHaving                      // HAVING aggregate condition
	kindOrder                       // ORDER BY (+ LIMIT)
	kindDistinct                    // SELECT DISTINCT
)

// label is one query unit's semantics (paper §IV-B, semantics enrichment).
// Each kind fills only the fields its phrase reads.
type label struct {
	kind labelKind
	// column is the unit's column as the query spells it ("T2.name");
	// empty for table-level units.
	column string
	// col is the index into the provenance table's columns the label is
	// anchored to, or -1 when it labels the provenance table as a whole.
	col int

	op       string // comparison operator (filter, HAVING)
	value    string // filter constant, IN list or subquery summary, LIKE pattern
	not      bool   // NOT IN, NOT LIKE, IS NOT NULL, NOT EXISTS
	subquery bool   // value summarizes a subquery
	fn       string // lower-case aggregate function name
	arg      string // aggregate argument SQL ("*" for count(*))
	distinct bool   // aggregate over DISTINCT
	lo, hi   string // BETWEEN bounds
	rhs      string // HAVING right-hand side
	key      string // ORDER BY key
	desc     bool   // ORDER BY ... DESC
	limit    *int64 // LIMIT accompanying ORDER BY
}

// labelCore appends the labels of one SELECT core to dst, clause by
// clause: SELECT, WHERE, GROUP BY, HAVING, ORDER BY. JOIN conditions carry
// no label: the join's phrasing comes from DiscoverJoin.
func labelCore(dst []label, core *sqlast.SelectCore) []label {
	if core.Distinct {
		dst = append(dst, label{kind: kindDistinct})
	}
	for _, it := range core.Items {
		if it.Star {
			continue
		}
		switch x := it.Expr.(type) {
		case *sqlast.ColumnRef:
			dst = append(dst, label{kind: kindProjection, column: colName(x)})
		case *sqlast.FuncCall:
			if x.IsAggregate() {
				dst = append(dst, aggregateLabel(x))
			}
		case *sqlast.Binary:
			// Arithmetic over aggregates (max(a) - min(a)).
			sqlast.WalkExpr(x, func(e sqlast.Expr) bool {
				if f, ok := e.(*sqlast.FuncCall); ok && f.IsAggregate() {
					dst = append(dst, aggregateLabel(f))
				}
				return true
			})
		}
	}
	for _, c := range sqlast.Conjuncts(core.Where) {
		dst = predicateLabels(dst, c)
	}
	for _, g := range core.GroupBy {
		if cr, ok := g.(*sqlast.ColumnRef); ok {
			dst = append(dst, label{kind: kindGroup, column: colName(cr)})
		}
	}
	// HAVING conditions apply to the whole (grouped) table.
	for _, c := range sqlast.Conjuncts(core.Having) {
		b, ok := c.(*sqlast.Binary)
		if !ok {
			continue
		}
		if f, ok := b.L.(*sqlast.FuncCall); ok && f.IsAggregate() {
			l := label{kind: kindHaving, fn: strings.ToLower(f.Name), op: b.Op, rhs: sqlast.ExprSQL(b.R)}
			if !f.Star && len(f.Args) == 1 {
				l.arg = sqlast.ExprSQL(f.Args[0])
			}
			dst = append(dst, l)
		}
	}
	// ORDER BY (+ LIMIT) selects representative rows; table-level.
	for _, o := range core.OrderBy {
		dst = append(dst, label{kind: kindOrder, key: sqlast.ExprSQL(o.Expr), desc: o.Desc, limit: core.Limit})
	}
	return dst
}

// aggregateLabel labels an aggregate call. Aggregates over a plain column
// carry that column; aggregates over * describe the whole provenance table
// (the paper's asterisk rule).
func aggregateLabel(f *sqlast.FuncCall) label {
	l := label{kind: kindAggregate, fn: strings.ToLower(f.Name), distinct: f.Distinct}
	if f.Star {
		l.arg = "*"
	} else if len(f.Args) == 1 {
		l.arg = sqlast.ExprSQL(f.Args[0])
		if cr, ok := f.Args[0].(*sqlast.ColumnRef); ok {
			l.column = colName(cr)
		}
	}
	return l
}

// predicateLabels appends the labels of one WHERE conjunct. A disjunction
// contributes the labels of both branches.
func predicateLabels(dst []label, c sqlast.Expr) []label {
	switch x := c.(type) {
	case *sqlast.Binary:
		if x.Op == "OR" {
			return predicateLabels(predicateLabels(dst, x.L), x.R)
		}
		cr, ok := x.L.(*sqlast.ColumnRef)
		if !ok {
			return dst
		}
		l := label{kind: kindFilter, column: colName(cr), op: x.Op}
		switch r := x.R.(type) {
		case *sqlast.Literal:
			l.value = r.Value.String()
		case *sqlast.SubqueryExpr:
			l.value, l.subquery = describeSub(r.Sub), true
		default:
			l.value = sqlast.ExprSQL(x.R)
		}
		return append(dst, l)
	case *sqlast.InExpr:
		cr, ok := x.X.(*sqlast.ColumnRef)
		if !ok {
			return dst
		}
		l := label{kind: kindMembership, column: colName(cr), not: x.Not}
		if x.Sub != nil {
			l.value, l.subquery = describeSub(x.Sub), true
		} else {
			vals := make([]string, len(x.List))
			for i, v := range x.List {
				vals[i] = sqlast.ExprSQL(v)
			}
			l.value = strings.Join(vals, ", ")
		}
		return append(dst, l)
	case *sqlast.LikeExpr:
		if cr, ok := x.X.(*sqlast.ColumnRef); ok {
			dst = append(dst, label{kind: kindPattern, column: colName(cr), value: sqlast.ExprSQL(x.Pattern), not: x.Not})
		}
	case *sqlast.BetweenExpr:
		if cr, ok := x.X.(*sqlast.ColumnRef); ok {
			dst = append(dst, label{kind: kindRange, column: colName(cr), lo: sqlast.ExprSQL(x.Lo), hi: sqlast.ExprSQL(x.Hi)})
		}
	case *sqlast.IsNullExpr:
		if cr, ok := x.X.(*sqlast.ColumnRef); ok {
			dst = append(dst, label{kind: kindNullCheck, column: colName(cr), not: x.Not})
		}
	case *sqlast.ExistsExpr:
		dst = append(dst, label{kind: kindExists, value: describeSub(x.Sub), not: x.Not})
	}
	return dst
}

// anchor attaches each label to a column of the provenance table: the
// column whose name matches the label's case-insensitively, else the first
// column with the same unqualified name, else (and always for table-level
// labels, or when the part has no provenance table) the table as a whole.
func anchor(labels []label, table *sqltypes.Relation) {
	for i := range labels {
		l := &labels[i]
		l.col = -1
		if l.column == "" || table == nil {
			continue
		}
		for ci, c := range table.Columns {
			if strings.EqualFold(c, l.column) {
				l.col = ci
				break
			}
		}
		if l.col >= 0 {
			continue
		}
		bare := unqualified(l.column)
		for ci, c := range table.Columns {
			if strings.EqualFold(unqualified(c), bare) {
				l.col = ci
				break
			}
		}
	}
}

// describeSub summarizes a subquery for phrasing: its projection and its
// literal filters.
func describeSub(sub *sqlast.SelectStmt) string {
	core := sub.Cores[0]
	var b strings.Builder
	for i, it := range core.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.SQL())
	}
	fs := provenance.Filters(core)
	if len(fs) > 0 {
		b.WriteString(" where ")
		for i, f := range fs {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(f.Column.Column)
			b.WriteByte(' ')
			b.WriteString(strings.ToLower(f.Op))
			b.WriteByte(' ')
			b.WriteString(f.Value.String())
		}
	}
	return b.String()
}

func colName(cr *sqlast.ColumnRef) string {
	if cr.Table != "" {
		return cr.Table + "." + cr.Column
	}
	return cr.Column
}

// unqualified strips a "table." qualifier.
func unqualified(col string) string {
	if dot := strings.LastIndexByte(col, '.'); dot >= 0 {
		return col[dot+1:]
	}
	return col
}
