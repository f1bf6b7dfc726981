package sqloracle

import (
	"sort"
	"strings"

	"cyclesql/internal/sqlast"
)

// CacheKey is the seed plan-cache key: deep-clone the statement,
// mutate the clone into canonical form (identifier case folding,
// literal-first comparison orientation, conjunct sorting), render it
// with the seed string-concatenating renderer (render.go), then append the
// original-case projection labels. Dozens to hundreds of allocations
// per call — which is exactly why sqlnorm.CacheKey re-renders the same
// string in one pass instead.
//
// Deprecated: test oracle only — production code uses sqlnorm.CacheKey,
// which must produce byte-identical output (enforced by the
// differential suites).
func CacheKey(stmt *sqlast.SelectStmt) string {
	out := stmt.Clone()
	for _, core := range out.Cores {
		cacheNormalizeCore(core)
	}
	var b strings.Builder
	b.WriteString(SQL(out))
	for _, core := range stmt.Cores {
		for _, it := range core.Items {
			b.WriteByte('\x00')
			switch {
			case it.Alias != "":
				b.WriteString(it.Alias)
			case it.Star:
				// Star expansion labels come from the (already lowered)
				// stored column names, so stars are case-independent.
			default:
				b.WriteString(exprSQL(it.Expr))
			}
		}
	}
	return b.String()
}

func cacheNormalizeCore(core *sqlast.SelectCore) {
	foldIdentifierCase(core)
	orientComparisons(core)
	// Normalize nested statements before sorting the outer conjuncts: the
	// sort compares rendered SQL, so subqueries must already be in their
	// canonical spelling or case-variant subqueries would order conjuncts
	// differently and miss the shared key.
	for _, sub := range core.Subqueries() {
		for _, c := range sub.Cores {
			cacheNormalizeCore(c)
		}
	}
	conj := sqlast.Conjuncts(core.Where)
	sort.SliceStable(conj, func(i, j int) bool {
		return exprSQL(conj[i]) < exprSQL(conj[j])
	})
	core.Where = sqlast.FromAnd(conj)
}

// flippedCmp maps each comparison operator to its operand-swapped spelling.
var flippedCmp = map[string]string{
	"=": "=", "!=": "!=", "<>": "<>",
	"<": ">", "<=": ">=", ">": "<", ">=": "<=",
}

func orientComparisons(core *sqlast.SelectCore) {
	orient := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(e sqlast.Expr) bool {
			b, ok := e.(*sqlast.Binary)
			if !ok {
				return true
			}
			flipped, cmp := flippedCmp[b.Op]
			if !cmp {
				return true
			}
			if _, lLit := b.L.(*sqlast.Literal); !lLit {
				return true
			}
			if _, rLit := b.R.(*sqlast.Literal); rLit {
				return true // constant comparison: nothing to orient around
			}
			b.L, b.R, b.Op = b.R, b.L, flipped
			return true
		})
	}
	orient(core.Where)
	orient(core.Having)
	if core.From != nil {
		for i := range core.From.Joins {
			orient(core.From.Joins[i].On)
		}
	}
}

func foldIdentifierCase(core *sqlast.SelectCore) {
	lower := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(e sqlast.Expr) bool {
			if cr, ok := e.(*sqlast.ColumnRef); ok {
				cr.Table = strings.ToLower(cr.Table)
				cr.Column = strings.ToLower(cr.Column)
			}
			return true
		})
	}
	if core.From != nil {
		core.From.Base.Name = strings.ToLower(core.From.Base.Name)
		core.From.Base.Alias = strings.ToLower(core.From.Base.Alias)
		for i := range core.From.Joins {
			j := &core.From.Joins[i]
			j.Table.Name = strings.ToLower(j.Table.Name)
			j.Table.Alias = strings.ToLower(j.Table.Alias)
			lower(j.On)
		}
	}
	for i := range core.Items {
		lower(core.Items[i].Expr)
		core.Items[i].Alias = strings.ToLower(core.Items[i].Alias)
		core.Items[i].TableStar = strings.ToLower(core.Items[i].TableStar)
	}
	lower(core.Where)
	lower(core.Having)
	for _, g := range core.GroupBy {
		lower(g)
	}
	for i := range core.OrderBy {
		lower(core.OrderBy[i].Expr)
	}
}
