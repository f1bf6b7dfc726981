package explain

import (
	"strings"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/provenance"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// trackSQL executes sql against db and tracks the provenance of row 0.
func trackSQL(t *testing.T, db *storage.Database, sql string) *provenance.Provenance {
	t.Helper()
	stmt := sqlparse.MustParse(sql)
	rel, err := sqleval.New(db).Exec(stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	prov, err := provenance.Track(db, stmt, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	return prov
}

// anchoredLabels labels and anchors one provenance part, as FromProvenance
// does.
func anchoredLabels(part provenance.Part) []label {
	labels := labelCore(nil, part.Core)
	anchor(labels, part.Table)
	return labels
}

func kindCounts(labels []label) map[labelKind]int {
	out := map[labelKind]int{}
	for _, l := range labels {
		out[l.kind]++
	}
	return out
}

// TestLabels checks the clause-by-clause decomposition and the anchoring
// of each label onto the provenance table.
func TestLabels(t *testing.T) {
	const paperSQL = "SELECT count(*) FROM flight AS T1 JOIN aircraft AS T2 ON T1.aid = T2.aid WHERE T2.name = 'Airbus A340-300'"
	cases := []struct {
		name  string
		sql   string
		world bool // run against the world database instead of flight
		check func(t *testing.T, prov *provenance.Provenance)
	}{
		{"paper_example", paperSQL, false, func(t *testing.T, prov *provenance.Provenance) {
			labels := anchoredLabels(prov.Parts[0])
			if k := kindCounts(labels); len(k) != 2 || k[kindAggregate] != 1 || k[kindFilter] != 1 {
				t.Fatalf("kinds = %v (JOIN ... ON carries no label)", k)
			}
			for _, l := range labels {
				switch l.kind {
				case kindFilter:
					if l.column != "T2.name" || l.value != "Airbus A340-300" || l.op != "=" {
						t.Fatalf("filter label: %+v", l)
					}
				case kindAggregate:
					if l.fn != "count" || l.arg != "*" || l.column != "" || l.col != -1 {
						t.Fatalf("aggregate label must be table-level: %+v", l)
					}
				}
			}
		}},
		{"filter_anchors_to_column_value", paperSQL, false, func(t *testing.T, prov *provenance.Provenance) {
			part := prov.Parts[0]
			for _, l := range anchoredLabels(part) {
				if l.kind != kindFilter {
					continue
				}
				if l.col < 0 {
					t.Fatal("filter label did not anchor to a column")
				}
				if v := part.Table.Rows[0][l.col]; v.Text() != "Airbus A340-300" {
					t.Fatalf("filter anchored to wrong column value: %v", v)
				}
				return
			}
			t.Fatal("no filter label")
		}},
		{"joint_subject_and_column_values", paperSQL, false, func(t *testing.T, prov *provenance.Provenance) {
			table := prov.Parts[0].Table
			if len(table.Columns) == 0 || len(table.Rows) == 0 || len(table.Rows[0]) != len(table.Columns) {
				t.Fatalf("provenance row 0 must carry a value for every column: %v", table.Columns)
			}
			exp, err := New(datasets.FlightDB()).FromProvenance(prov)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(exp.Text, "For aircraft with flight,") {
				t.Fatalf("the subject must name both joined tables:\n%s", exp.Text)
			}
		}},
		{"count_star_labels_table", "SELECT count(*) FROM flight", false, func(t *testing.T, prov *provenance.Provenance) {
			for _, l := range anchoredLabels(prov.Parts[0]) {
				if l.kind == kindAggregate && l.col == -1 {
					return
				}
			}
			t.Fatal("count(*) must label the table")
		}},
		{"group_having_order", "SELECT origin, count(*) FROM flight GROUP BY origin HAVING count(*) > 1 ORDER BY count(*) DESC LIMIT 1", false, func(t *testing.T, prov *provenance.Provenance) {
			labels := anchoredLabels(prov.Parts[0])
			if k := kindCounts(labels); k[kindGroup] != 1 || k[kindHaving] != 1 || k[kindOrder] != 1 || k[kindProjection] != 1 {
				t.Fatalf("kinds = %v", k)
			}
			for _, l := range labels {
				if l.kind == kindOrder && (!l.desc || l.limit == nil || *l.limit != 1) {
					t.Fatalf("order label: %+v", l)
				}
				if l.kind == kindHaving && (l.op != ">" || l.fn != "count" || l.rhs != "1") {
					t.Fatalf("having label: %+v", l)
				}
			}
		}},
		{"membership_and_pattern", "SELECT name FROM aircraft WHERE aid NOT IN (SELECT aid FROM flight) AND name LIKE 'B%'", false, func(t *testing.T, prov *provenance.Provenance) {
			labels := anchoredLabels(prov.Parts[0])
			if k := kindCounts(labels); k[kindMembership] != 1 || k[kindPattern] != 1 {
				t.Fatalf("kinds = %v", k)
			}
			for _, l := range labels {
				if l.kind == kindMembership && (!l.not || !l.subquery) {
					t.Fatalf("membership label: %+v", l)
				}
			}
		}},
		{"disjunction_labels_both_branches", "SELECT count(*) FROM flight WHERE origin = 'Chicago' OR destination = 'Tokyo'", false, func(t *testing.T, prov *provenance.Provenance) {
			var cols []string
			for _, l := range anchoredLabels(prov.Parts[0]) {
				if l.kind == kindFilter {
					cols = append(cols, l.column)
				}
			}
			if strings.Join(cols, ",") != "origin,destination" {
				t.Fatalf("disjunct filter labels = %v", cols)
			}
		}},
		{"range_and_null", "SELECT name FROM aircraft WHERE distance BETWEEN 1000 AND 5000", false, func(t *testing.T, prov *provenance.Provenance) {
			labels := anchoredLabels(prov.Parts[0])
			if kindCounts(labels)[kindRange] != 1 {
				t.Fatalf("range missing: %v", kindCounts(labels))
			}
			prov = trackSQL(t, datasets.FlightDB(), "SELECT T2.flno FROM aircraft AS T1 LEFT JOIN flight AS T2 ON T1.aid = T2.aid WHERE T2.flno IS NULL")
			labels = anchoredLabels(prov.Parts[0])
			if kindCounts(labels)[kindNullCheck] != 1 {
				t.Fatalf("nullcheck missing: %v", kindCounts(labels))
			}
		}},
		{"distinct", "SELECT DISTINCT origin FROM flight", false, func(t *testing.T, prov *provenance.Provenance) {
			labels := anchoredLabels(prov.Parts[0])
			if kindCounts(labels)[kindDistinct] != 1 {
				t.Fatalf("distinct missing: %v", kindCounts(labels))
			}
		}},
		{"compound_parts", "SELECT name FROM country WHERE continent = 'Europe' INTERSECT SELECT name FROM country WHERE population > 1000000", true, func(t *testing.T, prov *provenance.Provenance) {
			if len(prov.Parts) != 2 {
				t.Fatalf("compound provenance parts = %d", len(prov.Parts))
			}
			for i, want := range []string{"continent", "population"} {
				labels := anchoredLabels(prov.Parts[i])
				if k := kindCounts(labels); k[kindFilter] != 1 {
					t.Fatalf("part %d kinds = %v", i, k)
				}
				for _, l := range labels {
					if l.kind == kindFilter && (l.column != want || l.col < 0) {
						t.Fatalf("part %d filter label: %+v", i, l)
					}
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := datasets.FlightDB()
			if tc.world {
				db = datasets.WorldDB()
			}
			tc.check(t, trackSQL(t, db, tc.sql))
		})
	}
}

// TestAnchorMatching pins the anchoring order: an exact case-insensitive
// match, else the first column with the same unqualified name, else the
// table.
func TestAnchorMatching(t *testing.T) {
	table := &sqltypes.Relation{Columns: []string{"T1.name", "T2.name", "T2.aid", "flno"}}
	cases := []struct {
		column string
		want   int
	}{
		{"t2.NAME", 1},
		{"name", 0},
		{"T3.name", 0},
		{"T1.flno", 3},
		{"distance", -1},
		{"", -1},
	}
	for _, c := range cases {
		labels := []label{{kind: kindFilter, column: c.column}}
		anchor(labels, table)
		if labels[0].col != c.want {
			t.Errorf("anchor(%q) = %d, want %d", c.column, labels[0].col, c.want)
		}
	}
	labels := []label{{kind: kindFilter, column: "name"}}
	anchor(labels, nil)
	if labels[0].col != -1 {
		t.Errorf("a part without a provenance table must label the table, got column %d", labels[0].col)
	}
}

// A filter whose column is missing from the provenance table phrases from
// the query surface.
func TestExplainMissingColumnFilter(t *testing.T) {
	db := datasets.FlightDB()
	prov := trackSQL(t, db, "SELECT flno FROM flight WHERE origin = 'Chicago'")
	part := &prov.Parts[0]
	flno := part.Table.ColumnIndex("flno")
	if flno < 0 {
		t.Fatalf("no flno column in %v", part.Table.Columns)
	}
	// Keep only the flno column, as a rewrite that lost origin would.
	narrowed := &sqltypes.Relation{Columns: []string{part.Table.Columns[flno]}}
	for _, row := range part.Table.Rows {
		narrowed.Rows = append(narrowed.Rows, sqltypes.Row{row[flno]})
	}
	part.Table = narrowed
	exp, err := New(db).FromProvenance(prov)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp.Text, "where origin is equal to Chicago") {
		t.Fatalf("missing-column filter must phrase from the query surface:\n%s", exp.Text)
	}
}
