package sqleval_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/provenance"
	"cyclesql/internal/schema"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlgen"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// TestMemoInlineOracle is the differential oracle for memoized
// subqueries. Over the Spider dev golds, the sqlgen corpus, every
// simulator's beam-8 candidates over Spider dev and the provenance
// rewrites of those candidates, every subquery the compiler classifies as
// uncorrelated must (a) execute standalone — a subquery that reads an
// outer row fails to compile on its own, so this proves the classifier
// never marks one uncorrelated — and (b) leave the statement's result
// unchanged when it is replaced by its materialized value, built directly
// on the AST: an IN list of literals, a scalar literal or NULL, or a
// TRUE/FALSE literal for EXISTS. The replaced statement runs through the
// linear IN-list path, never through the memo.
func TestMemoInlineOracle(t *testing.T) {
	seen := map[string]bool{}
	statements, subqueries := 0, 0
	check := func(db *storage.Database, dbName string, stmt *sqlast.SelectStmt) {
		key := dbName + "\x00" + stmt.SQL()
		if seen[key] {
			return
		}
		seen[key] = true
		statements++
		subqueries += inlineCheck(t, db, stmt)
	}

	bench := datasets.Spider()
	for _, ex := range bench.Dev {
		check(bench.DB(ex.DBName), ex.DBName, ex.Gold)
	}
	goldSubqueries := subqueries
	for _, c := range []struct {
		seed    int64
		queries []string
	}{
		{sqlgen.SingleTableSeed, sqlgen.SingleTableQueries(sqlgen.SingleTableSeed, sqlgen.SingleTableCount)},
		{sqlgen.JoinSeed, sqlgen.JoinQueries(sqlgen.JoinSeed, sqlgen.JoinCount)},
	} {
		db := sqleval.RandomDB(t, rand.New(rand.NewSource(c.seed)))
		for _, q := range c.queries {
			check(db, "randdb", sqlparse.MustParse(q))
		}
	}
	for _, name := range nl2sql.ModelNames() {
		model := nl2sql.MustByName(name)
		for _, ex := range bench.Dev {
			db := bench.DB(ex.DBName)
			for _, cand := range model.Translate(bench.Name, ex, db, 8) {
				check(db, ex.DBName, cand.Stmt)
				rel, err := sqleval.New(db).Exec(cand.Stmt)
				if err != nil || rel.NumRows() == 0 {
					continue
				}
				for _, core := range cand.Stmt.Cores {
					check(db, ex.DBName, provenance.RewriteCore(db, core, rel.Rows[0]))
				}
			}
		}
	}
	if goldSubqueries == 0 || subqueries == goldSubqueries {
		t.Fatalf("oracle exercised too little: %d uncorrelated subqueries in golds, %d overall", goldSubqueries, subqueries)
	}
	t.Logf("%d distinct statements, %d uncorrelated subqueries checked (%d in dev golds)", statements, subqueries, goldSubqueries)
}

// inlineCheck runs the oracle of TestMemoInlineOracle on one statement
// and returns the number of uncorrelated subqueries it checked. Statements
// that fail to compile or execute have nothing to compare and are skipped.
func inlineCheck(t *testing.T, db *storage.Database, stmt *sqlast.SelectStmt) int {
	t.Helper()
	subs, err := sqleval.Uncorrelated(sqleval.New(db), stmt)
	if err != nil || len(subs) == 0 {
		return 0
	}
	want, err := sqleval.New(db).Exec(stmt)
	if err != nil {
		return 0
	}
	for i := range subs {
		// Each subquery is inlined into its own clone; compiling the clone
		// classifies the same subqueries in the same slot order.
		clone := stmt.Clone()
		cloneSubs, err := sqleval.Uncorrelated(sqleval.New(db), clone)
		if err != nil || len(cloneSubs) != len(subs) {
			t.Fatalf("%s: clone classifies differently: %v", stmt.SQL(), err)
		}
		e := cloneSubs[i]
		repl, err := materialize(db, e)
		if err != nil {
			t.Errorf("%s: uncorrelated subquery %s does not run standalone: %v", stmt.SQL(), sqlast.ExprSQL(e), err)
			continue
		}
		if !substitute(clone, e, repl) {
			t.Fatalf("%s: subquery %s not found in its clone", stmt.SQL(), sqlast.ExprSQL(e))
		}
		got, err := sqleval.New(db).Exec(clone)
		if err != nil {
			t.Errorf("%s: inlined form %s fails: %v", stmt.SQL(), clone.SQL(), err)
			continue
		}
		if !sameRows(got, want) {
			t.Errorf("%s: inlining %s changes the result:\nmemoized:\n%s\ninlined (%s):\n%s",
				stmt.SQL(), sqlast.ExprSQL(e), want, clone.SQL(), got)
		}
	}
	return len(subs)
}

// materialize executes subquery expression e's statement on its own and
// returns the expression that replaces e.
func materialize(db *storage.Database, e sqlast.Expr) (sqlast.Expr, error) {
	var sub *sqlast.SelectStmt
	switch x := e.(type) {
	case *sqlast.InExpr:
		sub = x.Sub
	case *sqlast.ExistsExpr:
		sub = x.Sub
	case *sqlast.SubqueryExpr:
		sub = x.Sub
	}
	rel, err := sqleval.New(db).Exec(sub)
	if err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *sqlast.InExpr:
		list := []sqlast.Expr{}
		for _, row := range rel.Rows {
			if len(row) > 0 {
				list = append(list, &sqlast.Literal{Value: row[0]})
			}
		}
		return &sqlast.InExpr{X: x.X, Not: x.Not, List: list}, nil
	case *sqlast.ExistsExpr:
		return &sqlast.Literal{Value: sqltypes.NewBool((rel.NumRows() > 0) != x.Not)}, nil
	default:
		if rel.NumRows() == 0 || rel.NumCols() == 0 {
			return &sqlast.Literal{Value: sqltypes.Null()}, nil
		}
		return &sqlast.Literal{Value: rel.Rows[0][0]}, nil
	}
}

// substitute replaces the expression node old, wherever it sits in s
// (subqueries and derived tables included), with repl in place. It
// reports whether old was found.
func substitute(s *sqlast.SelectStmt, old, repl sqlast.Expr) bool {
	found := false
	var stmt func(*sqlast.SelectStmt)
	var expr func(sqlast.Expr) sqlast.Expr
	exprs := func(es []sqlast.Expr) {
		for i := range es {
			es[i] = expr(es[i])
		}
	}
	expr = func(e sqlast.Expr) sqlast.Expr {
		if e == old {
			found = true
			return repl
		}
		switch x := e.(type) {
		case *sqlast.Unary:
			x.X = expr(x.X)
		case *sqlast.Binary:
			x.L, x.R = expr(x.L), expr(x.R)
		case *sqlast.FuncCall:
			exprs(x.Args)
		case *sqlast.InExpr:
			x.X = expr(x.X)
			exprs(x.List)
			if x.Sub != nil {
				stmt(x.Sub)
			}
		case *sqlast.LikeExpr:
			x.X, x.Pattern = expr(x.X), expr(x.Pattern)
		case *sqlast.BetweenExpr:
			x.X, x.Lo, x.Hi = expr(x.X), expr(x.Lo), expr(x.Hi)
		case *sqlast.IsNullExpr:
			x.X = expr(x.X)
		case *sqlast.ExistsExpr:
			stmt(x.Sub)
		case *sqlast.SubqueryExpr:
			stmt(x.Sub)
		}
		return e
	}
	stmt = func(s *sqlast.SelectStmt) {
		for _, c := range s.Cores {
			for i := range c.Items {
				c.Items[i].Expr = expr(c.Items[i].Expr)
			}
			if c.From != nil {
				if c.From.Base.Sub != nil {
					stmt(c.From.Base.Sub)
				}
				for i := range c.From.Joins {
					j := &c.From.Joins[i]
					if j.Table.Sub != nil {
						stmt(j.Table.Sub)
					}
					j.On = expr(j.On)
				}
			}
			c.Where = expr(c.Where)
			exprs(c.GroupBy)
			c.Having = expr(c.Having)
			for i := range c.OrderBy {
				c.OrderBy[i].Expr = expr(c.OrderBy[i].Expr)
			}
		}
	}
	stmt(s)
	return found
}

// sameRows reports whether two relations hold the same rows in the same
// order, value for value and kind for kind. Column labels are not
// compared: an inlined subquery in a SELECT item renders differently.
func sameRows(a, b *sqltypes.Relation) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for ri, row := range a.Rows {
		for ci, v := range row {
			w := b.Rows[ri][ci]
			if v.Kind() != w.Kind() || sqltypes.Compare(v, w) != 0 {
				return false
			}
		}
	}
	return true
}

// TestSubqueryClassifier pins which subqueries the compiler memoizes. A
// subquery is correlated when a reference inside it, at any nesting,
// binds to the scope it is compiled against or an enclosing one; each
// case lists the subqueries expected uncorrelated, and every statement
// also passes the inline oracle.
func TestSubqueryClassifier(t *testing.T) {
	db := sqleval.FlightDB(t)
	for _, tc := range []struct {
		name, sql string
		memo      []string
	}{
		{"correlated reference in WHERE",
			"SELECT name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid = A.aid)",
			nil},
		{"correlated reference in a SELECT item",
			"SELECT name FROM Aircraft AS A WHERE distance > (SELECT A.aid * 1000 FROM Flight LIMIT 1)",
			nil},
		{"correlated reference in a HAVING aggregate's argument",
			"SELECT name FROM Aircraft AS A WHERE aid IN (SELECT aid FROM Flight GROUP BY aid HAVING max(A.distance) > 5000)",
			nil},
		{"sub-subquery referencing the outermost core",
			"SELECT name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid IN (SELECT B.aid FROM Aircraft AS B WHERE B.distance < A.distance))",
			nil},
		{"uncorrelated sub-subquery inside a correlated subquery",
			"SELECT name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM Flight AS F WHERE F.aid = A.aid AND F.aid IN (SELECT aid FROM Aircraft WHERE distance > 5000))",
			[]string{"F.aid IN (SELECT aid FROM Aircraft WHERE distance > 5000)"}},
		{"derived table inside a subquery",
			"SELECT name FROM Aircraft WHERE aid IN (SELECT D.aid FROM (SELECT aid FROM Flight WHERE origin = 'Chicago') AS D)",
			[]string{"aid IN (SELECT D.aid FROM (SELECT aid FROM Flight WHERE origin = 'Chicago') AS D)"}},
		{"derived table inside a subquery referencing the outer core",
			"SELECT name FROM Aircraft AS A WHERE EXISTS (SELECT 1 FROM (SELECT aid FROM Flight WHERE Flight.aid = A.aid) AS D)",
			nil},
		{"subquery inside a top-level derived table",
			"SELECT count(*) FROM (SELECT flno FROM Flight WHERE aid NOT IN (SELECT aid FROM Aircraft WHERE distance < 2000)) AS D",
			[]string{"aid NOT IN (SELECT aid FROM Aircraft WHERE distance < 2000)"}},
		{"inner alias shadowing an outer name",
			"SELECT name FROM Aircraft AS A WHERE aid IN (SELECT A.aid FROM Flight AS A WHERE A.origin = 'Chicago')",
			[]string{"aid IN (SELECT A.aid FROM Flight AS A WHERE A.origin = 'Chicago')"}},
		{"unqualified inner column shadowing an outer column",
			"SELECT name FROM Aircraft WHERE aid NOT IN (SELECT aid FROM Flight)",
			[]string{"aid NOT IN (SELECT aid FROM Flight)"}},
		{"uncorrelated scalar and NOT EXISTS",
			"SELECT name FROM Aircraft WHERE distance > (SELECT avg(distance) FROM Aircraft) AND NOT EXISTS (SELECT 1 FROM Flight WHERE origin = 'Tokyo')",
			[]string{"(SELECT AVG(distance) FROM Aircraft)", "NOT EXISTS (SELECT 1 FROM Flight WHERE origin = 'Tokyo')"}},
		{"uncorrelated subqueries in two compound cores",
			"SELECT name FROM Aircraft WHERE aid IN (SELECT aid FROM Flight WHERE origin = 'Chicago') UNION SELECT name FROM Aircraft WHERE aid NOT IN (SELECT aid FROM Flight WHERE origin = 'Los Angeles')",
			[]string{"aid IN (SELECT aid FROM Flight WHERE origin = 'Chicago')", "aid NOT IN (SELECT aid FROM Flight WHERE origin = 'Los Angeles')"}},
	} {
		stmt := sqlparse.MustParse(tc.sql)
		subs, err := sqleval.Uncorrelated(sqleval.New(db), stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, e := range subs {
			got = append(got, sqlast.ExprSQL(e))
		}
		if !slices.Equal(got, tc.memo) {
			t.Errorf("%s: memoized %q, want %q", tc.name, got, tc.memo)
		}
		if n := inlineCheck(t, db, stmt); n != len(tc.memo) {
			t.Errorf("%s: inline oracle checked %d subqueries, want %d", tc.name, n, len(tc.memo))
		}
	}
}

// membershipDB holds one probe table P(id, x) and one member table
// M(k, v) whose values mix INTEGER, REAL, TEXT, NULL and NaN. Raw relation
// appends keep the kinds intact (Insert would coerce them).
func membershipDB(t *testing.T) *storage.Database {
	t.Helper()
	s := &schema.Schema{
		Name: "membership",
		Tables: []*schema.Table{
			{Name: "P", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "x", Type: sqltypes.KindInt},
			}},
			{Name: "M", Columns: []schema.Column{
				{Name: "k", Type: sqltypes.KindText},
				{Name: "v", Type: sqltypes.KindInt},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(s)
	nan := sqltypes.NewFloat(math.NaN())
	for i, x := range []sqltypes.Value{
		sqltypes.NewInt(1), sqltypes.NewFloat(1), sqltypes.NewText("1"),
		sqltypes.Null(), nan, sqltypes.NewInt(2), sqltypes.NewText("a"),
	} {
		db.Table("P").Append(sqltypes.Row{sqltypes.NewInt(int64(i + 1)), x})
	}
	for _, m := range []struct {
		k string
		v sqltypes.Value
	}{
		{"int1", sqltypes.NewInt(1)},
		{"text1", sqltypes.NewText("1")},
		{"withnull", sqltypes.NewInt(3)}, {"withnull", sqltypes.Null()},
		{"nan", nan},
	} {
		db.Table("M").Append(sqltypes.Row{sqltypes.NewText(m.k), m.v})
	}
	return db
}

// TestMemoMembershipSemantics pins IN / NOT IN over a memoized subquery
// against hand-computed tri-state results for probes 1, 1.0, '1', NULL,
// NaN, 2 and 'a', and against the same subquery made correlated (a
// tautological outer reference keeps the per-row linear scan).
func TestMemoMembershipSemantics(t *testing.T) {
	db := membershipDB(t)
	const (
		T = "1"
		F = "0"
		N = "NULL"
	)
	for _, tc := range []struct {
		members string
		in      []string // IN result per probe; NOT IN negates T/F
	}{
		// Compare equates INTEGER 1 and REAL 1.0 but never the TEXT '1',
		// and finds NaN equal to every number.
		{"int1", []string{T, T, F, N, T, F, F}},
		{"text1", []string{F, F, T, N, F, F, F}},
		// A miss against a set holding NULL is unknown; NaN hits 3.
		{"withnull", []string{N, N, N, N, T, N, N}},
		{"nan", []string{T, T, F, N, T, T, F}},
		{"none", []string{F, F, F, N, F, F, F}},
	} {
		for _, not := range []bool{false, true} {
			op := "IN"
			if not {
				op = "NOT IN"
			}
			sub := "(SELECT v FROM M WHERE k = '" + tc.members + "')"
			memo := "SELECT x " + op + " " + sub + " FROM P ORDER BY id"
			if subs, err := sqleval.Uncorrelated(sqleval.New(db), sqlparse.MustParse(memo)); err != nil || len(subs) != 1 {
				t.Fatalf("%s: want one memoized subquery, got %d (%v)", memo, len(subs), err)
			}
			corr := "SELECT x " + op + " (SELECT v FROM M WHERE k = '" + tc.members + "' AND P.id = P.id) FROM P ORDER BY id"
			got := column(t, db, memo)
			if ref := column(t, db, corr); !slices.Equal(got, ref) {
				t.Errorf("%s: memoized %v, correlated %v", memo, got, ref)
			}
			want := slices.Clone(tc.in)
			for i, w := range want {
				if not && w != N {
					want[i] = map[string]string{T: F, F: T}[w]
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s: got %v, want %v", memo, got, want)
			}
		}
	}
}

// column executes sql and renders its first column.
func column(t *testing.T, db *storage.Database, sql string) []string {
	t.Helper()
	rel, err := sqleval.New(db).Exec(sqlparse.MustParse(sql))
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		out[i] = row[0].String()
	}
	return out
}

// TestMemoConcurrentExecutions runs one cached NOT IN plan from many
// goroutines on one executor: each execution keeps its own memo, so every
// result matches the sequential one.
func TestMemoConcurrentExecutions(t *testing.T) {
	db := sqleval.FlightDB(t)
	stmt := sqlparse.MustParse("SELECT name FROM Aircraft WHERE aid NOT IN (SELECT aid FROM Flight WHERE origin = 'Los Angeles') ORDER BY name")
	ex := sqleval.New(db)
	want, err := ex.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 3 {
		t.Fatalf("sequential result: %v", want.Rows)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := ex.ExecContext(context.Background(), stmt)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sameRows(got, want) {
					errs <- got.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent execution diverged: %s", e)
	}
}

// TestMemoSeesInserts re-executes one cached NOT IN plan after an
// in-place insert that adds a member: the memo belongs to the execution,
// not the plan, so the next execution sees the new member.
func TestMemoSeesInserts(t *testing.T) {
	db := sqleval.FlightDB(t)
	stmt := sqlparse.MustParse("SELECT count(*) FROM Aircraft WHERE aid NOT IN (SELECT aid FROM Flight)")
	ex := sqleval.New(db)
	count := func() int64 {
		t.Helper()
		rel, err := ex.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return rel.Rows[0][0].Int()
	}
	if n := count(); n != 2 {
		t.Fatalf("before insert: %d aircraft never flown, want 2", n)
	}
	db.MustInsert("Flight", sqltypes.NewInt(600), sqltypes.NewInt(4), sqltypes.NewText("Chicago"), sqltypes.NewText("Tokyo"))
	if n := count(); n != 1 {
		t.Fatalf("after insert: %d aircraft never flown, want 1 (stale memo?)", n)
	}
}
