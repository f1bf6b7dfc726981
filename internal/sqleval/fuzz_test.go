package sqleval_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlgen"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// fuzzRows caps every table of the fuzz databases, so even a three-way
// cross join stays at 512 frame rows.
const fuzzRows = 8

// fuzzDeadline bounds one leg of one statement. A statement that hits it
// (deep correlated nesting multiplies per-row work) is skipped, not
// judged.
const fuzzDeadline = 2 * time.Second

// tinyCopy copies the first fuzzRows rows of every table of db into a
// fresh database with the same schema.
func tinyCopy(t testing.TB, db *storage.Database) *storage.Database {
	out := storage.NewDatabase(db.Schema)
	for _, tbl := range db.Schema.Tables {
		rows := db.Table(tbl.Name).Rows
		for _, row := range rows[:min(len(rows), fuzzRows)] {
			if err := out.Insert(tbl.Name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// fuzzLegs are the four executor configurations that must agree on every
// statement: the cost-based planner, the syntactic planner, the
// index-free executor and the nested-loop fallback.
var fuzzLegs = []struct {
	name string
	set  func(*sqleval.Executor)
}{
	{"cost", func(*sqleval.Executor) {}},
	{"syntactic", func(ex *sqleval.Executor) { ex.Syntactic = true }},
	{"no-indexes", func(ex *sqleval.Executor) { ex.NoIndexes = true }},
	{"nested-loop", func(ex *sqleval.Executor) { ex.NestedLoopOnly = true }},
}

// identicalRelations reports whether two relations have the same column
// labels and the same rows in the same order, value for value with the
// same kind and, for floats, the same bits.
func identicalRelations(a, b *sqltypes.Relation) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for i, c := range a.Columns {
		if b.Columns[i] != c {
			return false
		}
	}
	for ri, row := range a.Rows {
		if len(row) != len(b.Rows[ri]) {
			return false
		}
		for ci, v := range row {
			w := b.Rows[ri][ci]
			if v.Kind() != w.Kind() || v.String() != w.String() ||
				(v.Kind() == sqltypes.KindFloat && math.Float64bits(v.Float()) != math.Float64bits(w.Float())) {
				return false
			}
		}
	}
	return true
}

// FuzzExec is the executor's differential fuzz target. The input picks a
// database — 0 is the mixed-kind T/U property schema the sqlgen corpus
// targets, the rest are the Spider dev databases in name order, each cut
// to fuzzRows rows per table — and a statement. A statement that parses
// must never panic the engine, and the four legs must return identical
// relations or identical errors. The seed corpus is the sqlgen property
// corpus, two more sqlgen batches, hand-written aggregate, join and
// subquery shapes, and every Spider dev gold on its own database.
func FuzzExec(f *testing.F) {
	dbs := []*storage.Database{tinyCopy(f, sqleval.RandomDB(f, rand.New(rand.NewSource(sqlgen.SingleTableSeed))))}
	bench := datasets.Spider()
	names := make([]string, 0, len(bench.Databases))
	for name := range bench.Databases {
		names = append(names, name)
	}
	sort.Strings(names)
	index := make(map[string]uint8, len(names))
	for _, name := range names {
		index[name] = uint8(len(dbs))
		dbs = append(dbs, tinyCopy(f, bench.DB(name)))
	}

	seeds := sqlgen.PropertyQueries()
	seeds = append(seeds, sqlgen.SingleTableQueries(1, 40)...)
	seeds = append(seeds, sqlgen.JoinQueries(2, 20)...)
	seeds = append(seeds,
		"SELECT num, count(*), sum(val), avg(val), min(txt), max(id) FROM T GROUP BY num HAVING count(*) > 1 ORDER BY sum(val) DESC",
		"SELECT count(DISTINCT txt), sum(DISTINCT num), avg(DISTINCT val) FROM T LEFT JOIN U ON T.num = U.k1",
		"SELECT T.id, U.w, T2.txt FROM T, U, T AS T2 WHERE T.num = T2.num AND U.k1 = T.num",
		"SELECT T.txt, max(U.w) FROM T JOIN U ON T.num = U.k1 AND T.txt = U.k2 GROUP BY T.txt ORDER BY max(U.w)",
		"SELECT id FROM T WHERE num IN (SELECT k1 FROM U) UNION SELECT w FROM U",
		"SELECT id FROM T AS A WHERE EXISTS (SELECT 1 FROM U WHERE U.k1 = A.num) ORDER BY id LIMIT 3",
		"SELECT txt, (SELECT count(*) FROM U WHERE U.k2 = T.txt) FROM T WHERE val > 0",
		"SELECT sum(count(*)) FROM T",
		"SELECT count(*) FROM T WHERE count(*) > 0",
		"SELECT DISTINCT num FROM T EXCEPT SELECT k1 FROM U",
		"SELECT id FROM T ORDER BY id LIMIT 9223372036854775807 OFFSET 1",
	)
	for _, q := range seeds {
		f.Add(uint8(0), q)
	}
	for _, ex := range bench.Dev {
		f.Add(index[ex.DBName], ex.GoldSQL)
	}

	f.Fuzz(func(t *testing.T, dbi uint8, sql string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return
		}
		db := dbs[int(dbi)%len(dbs)]
		var want *sqltypes.Relation
		var wantErr error
		for i, leg := range fuzzLegs {
			ex := sqleval.New(db)
			leg.set(ex)
			ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
			rel, err := ex.ExecContext(ctx, stmt)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				return
			}
			if i == 0 {
				want, wantErr = rel, err
				continue
			}
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("%q: %s leg error %v, cost leg error %v", sql, leg.name, err, wantErr)
			case err != nil && err.Error() != wantErr.Error():
				t.Fatalf("%q: %s leg error %q, cost leg error %q", sql, leg.name, err, wantErr)
			case err == nil && !identicalRelations(rel, want):
				t.Fatalf("%q: %s leg diverges from the cost leg:\n%s\ncost:\n%s", sql, leg.name, rel, want)
			}
		}
	})
}
