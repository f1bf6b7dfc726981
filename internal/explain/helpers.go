package explain

import (
	"fmt"
	"strings"

	"cyclesql/internal/provenance"
	"cyclesql/internal/schema"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/storage"
)

// opPhrase verbalizes a comparison operator.
func opPhrase(op string) string {
	switch op {
	case "=":
		return "equal to"
	case "!=", "<>":
		return "not equal to"
	case "<":
		return "less than"
	case "<=":
		return "less than or equal to"
	case ">":
		return "greater than"
	case ">=":
		return "greater than or equal to"
	case "LIKE":
		return "like"
	case "NOT LIKE":
		return "not like"
	default:
		return op
	}
}

// plural renders "1 column" / "3 columns".
func plural(n int, noun string) string {
	if n == 1 {
		return fmt.Sprintf("one %s", noun)
	}
	return fmt.Sprintf("%d %s", n, pluralNoun(noun))
}

// pluralNoun naively pluralizes an English noun phrase (its head word).
func pluralNoun(noun string) string {
	noun = strings.TrimSpace(noun)
	if noun == "" {
		return "rows"
	}
	switch {
	case strings.HasSuffix(noun, "s"), strings.HasSuffix(noun, "x"),
		strings.HasSuffix(noun, "ch"), strings.HasSuffix(noun, "sh"):
		return noun + "es"
	case strings.HasSuffix(noun, "y") && len(noun) > 1 && !isVowel(noun[len(noun)-2]):
		return noun[:len(noun)-1] + "ies"
	default:
		return noun + "s"
	}
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// bareColumn strips qualifiers and naturalizes a column spelling.
func bareColumn(col string) string {
	return schema.Naturalize(unqualified(col))
}

func bareColumns(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = bareColumn(c)
	}
	return out
}

// aggregateTypes lists the aggregate function names of the statement's
// first core, in projection order.
func aggregateTypes(stmt *sqlast.SelectStmt) []string {
	var out []string
	for _, it := range stmt.Cores[0].Items {
		sqlast.WalkExpr(it.Expr, func(e sqlast.Expr) bool {
			if f, ok := e.(*sqlast.FuncCall); ok && f.IsAggregate() {
				out = append(out, strings.ToLower(f.Name))
			}
			return true
		})
	}
	return out
}

// allFilters collects literal filters across every core of the statement.
func allFilters(stmt *sqlast.SelectStmt) []filterSurface {
	var out []filterSurface
	seen := map[string]bool{}
	for _, core := range stmt.Cores {
		for _, f := range provenance.Filters(core) {
			fs := filterSurface{Column: f.Column.Column, Op: f.Op, Value: f.Value}
			key := fs.Column + fs.Op + fs.Value.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, fs)
			}
		}
		// HAVING thresholds surface in summaries too (paper Q5: "filtered
		// by country language greater than 2").
		for _, c := range sqlast.Conjuncts(core.Having) {
			if b, ok := c.(*sqlast.Binary); ok {
				if f, okL := b.L.(*sqlast.FuncCall); okL && f.IsAggregate() {
					if lit, okR := b.R.(*sqlast.Literal); okR {
						arg := strings.ToLower(f.Name)
						if !f.Star && len(f.Args) == 1 {
							arg = sqlast.ExprSQL(f.Args[0])
						}
						fs := filterSurface{Column: arg, Op: b.Op, Value: lit.Value}
						key := fs.Column + fs.Op + fs.Value.String()
						if !seen[key] {
							seen[key] = true
							out = append(out, fs)
						}
					}
				}
			}
		}
	}
	return out
}

type filterSurface struct {
	Column string
	Op     string
	Value  interface{ String() string }
}

// isIDColumn reports whether an aggregate argument is an identifier-like
// column; COUNT over identifiers reads as counting the entity itself
// ("2 flights", not "2 ids").
func isIDColumn(arg string) bool {
	col := strings.ToLower(unqualified(arg))
	return col == "id" || strings.HasSuffix(col, "_id") || strings.HasSuffix(col, "id") && len(col) <= 4 || col == "code"
}

// headEntity names the entity a count(*) counts: the natural name of the
// first base table of the core.
func headEntity(db *storage.Database, core *sqlast.SelectCore) string {
	tables := core.Tables()
	if len(tables) == 0 {
		return "row"
	}
	if t := db.Schema.Table(tables[0].Name); t != nil {
		return t.Natural()
	}
	return schema.Naturalize(tables[0].Name)
}

// describeItems verbalizes a core's projection list.
func describeItems(core *sqlast.SelectCore) string {
	var parts []string
	for _, it := range core.Items {
		switch {
		case it.Star:
			parts = append(parts, "all columns")
		default:
			switch x := it.Expr.(type) {
			case *sqlast.ColumnRef:
				parts = append(parts, "the "+bareColumn(x.Column))
			case *sqlast.FuncCall:
				if x.IsAggregate() {
					arg := "rows"
					if !x.Star && len(x.Args) == 1 {
						arg = bareColumn(sqlast.ExprSQL(x.Args[0]))
					}
					parts = append(parts, fmt.Sprintf("the %s of %s", strings.ToLower(x.Name), arg))
				}
			default:
				parts = append(parts, sqlast.ExprSQL(it.Expr))
			}
		}
	}
	if len(parts) == 0 {
		return "the rows"
	}
	return strings.Join(parts, " and ")
}

// representativeRow verbalizes the first provenance row of a part for
// pure-projection queries ("country Anguilla, belongs to the continent
// North America").
func representativeRow(part provenance.Part) string {
	if part.Table == nil || part.Table.NumRows() == 0 {
		return ""
	}
	row := part.Table.Rows[0]
	var parts []string
	limit := len(part.Table.Columns)
	if limit > 5 {
		limit = 5 // keep phrases short; Rule 2 can project many columns
	}
	for i := 0; i < limit; i++ {
		parts = append(parts, fmt.Sprintf("the %s is %s", bareColumn(part.Table.Columns[i]), row[i]))
	}
	return "for example, " + strings.Join(parts, ", ")
}
