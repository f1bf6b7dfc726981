package sqloracle

import (
	"sort"
	"strings"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
)

// Normalize is the seed Spider exact-match canonicalizer: it returns a
// deep copy of stmt with positional table aliases, masked literal
// values and sorted projection items and WHERE conjuncts.
//
// Deprecated: test oracle only — production code renders the EM form
// in one pass through sqlnorm.Canonical.
func Normalize(stmt *sqlast.SelectStmt) *sqlast.SelectStmt {
	out := stmt.Clone()
	for _, core := range out.Cores {
		normalizeCore(core)
	}
	return out
}

// Canonical is the seed EM key: the normalized statement rendered by
// the seed renderer and lower-cased; two statements are EM-equal iff
// their Canonical strings match.
//
// Deprecated: test oracle only — production code uses
// sqlnorm.Canonical, which must produce byte-identical output (enforced
// by the differential suites).
func Canonical(stmt *sqlast.SelectStmt) string {
	return strings.ToLower(SQL(Normalize(stmt)))
}

// EMEqual is the seed exact-match metric.
//
// Deprecated: test oracle only — production code uses sqlnorm.EMEqual.
func EMEqual(a, b *sqlast.SelectStmt) bool {
	if a == nil || b == nil {
		return false
	}
	return Canonical(a) == Canonical(b)
}

func normalizeCore(core *sqlast.SelectCore) {
	renameAliases(core)
	maskLiterals(core)
	// Sort commutative lists for order-insensitive comparison.
	sort.SliceStable(core.Items, func(i, j int) bool {
		return itemSQL(core.Items[i]) < itemSQL(core.Items[j])
	})
	conj := sqlast.Conjuncts(core.Where)
	sort.SliceStable(conj, func(i, j int) bool {
		return exprSQL(conj[i]) < exprSQL(conj[j])
	})
	core.Where = sqlast.FromAnd(conj)
	// Normalize nested statements too.
	for _, sub := range core.Subqueries() {
		for _, c := range sub.Cores {
			normalizeCore(c)
		}
	}
}

// renameAliases rewrites table aliases to positional T1..Tn and lower-cases
// identifiers. Unaliased tables referenced by name keep their (lowered)
// name as qualifier.
func renameAliases(core *sqlast.SelectCore) {
	if core.From == nil {
		return
	}
	mapping := map[string]string{}
	refs := core.Tables()
	for i := range refs {
		old := strings.ToLower(refs[i].Effective())
		canon := "t" + itoa(i+1)
		mapping[old] = canon
	}
	core.From.Base.Alias = mapping[strings.ToLower(core.From.Base.Effective())]
	core.From.Base.Name = strings.ToLower(core.From.Base.Name)
	for i := range core.From.Joins {
		j := &core.From.Joins[i]
		j.Table.Alias = mapping[strings.ToLower(j.Table.Effective())]
		j.Table.Name = strings.ToLower(j.Table.Name)
	}
	rewrite := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(e sqlast.Expr) bool {
			if cr, ok := e.(*sqlast.ColumnRef); ok {
				if cr.Table != "" {
					if canon, ok := mapping[strings.ToLower(cr.Table)]; ok {
						cr.Table = canon
					} else {
						cr.Table = strings.ToLower(cr.Table)
					}
				}
				cr.Column = strings.ToLower(cr.Column)
			}
			return true
		})
	}
	for i := range core.Items {
		rewrite(core.Items[i].Expr)
		core.Items[i].Alias = "" // aliases are presentation, not semantics
		if core.Items[i].TableStar != "" {
			if canon, ok := mapping[strings.ToLower(core.Items[i].TableStar)]; ok {
				core.Items[i].TableStar = canon
			}
		}
	}
	rewrite(core.Where)
	rewrite(core.Having)
	for _, g := range core.GroupBy {
		rewrite(g)
	}
	for i := range core.OrderBy {
		rewrite(core.OrderBy[i].Expr)
	}
	for i := range core.From.Joins {
		rewrite(core.From.Joins[i].On)
	}
}

// maskLiterals replaces every literal with a placeholder so EM ignores
// values, mirroring the Spider EM definition. LIMIT counts are semantic
// (LIMIT 1 vs LIMIT 3 differ structurally) and are kept.
func maskLiterals(core *sqlast.SelectCore) {
	mask := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(e sqlast.Expr) bool {
			switch x := e.(type) {
			case *sqlast.Binary:
				x.L = maskIfLiteral(x.L)
				x.R = maskIfLiteral(x.R)
			case *sqlast.FuncCall:
				for i := range x.Args {
					x.Args[i] = maskIfLiteral(x.Args[i])
				}
			case *sqlast.InExpr:
				for i := range x.List {
					x.List[i] = maskIfLiteral(x.List[i])
				}
			case *sqlast.LikeExpr:
				x.Pattern = maskIfLiteral(x.Pattern)
			case *sqlast.BetweenExpr:
				x.Lo = maskIfLiteral(x.Lo)
				x.Hi = maskIfLiteral(x.Hi)
			}
			return true
		})
	}
	mask(core.Where)
	mask(core.Having)
	for i := range core.Items {
		mask(core.Items[i].Expr)
	}
}

func maskIfLiteral(e sqlast.Expr) sqlast.Expr {
	if _, ok := e.(*sqlast.Literal); ok {
		return sqlast.Lit(sqltypes.NewText("value"))
	}
	return e
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + itoa(n%10)
}
