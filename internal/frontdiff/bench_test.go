package frontdiff

import (
	"testing"

	"cyclesql/internal/sqllex"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqloracle"
	"cyclesql/internal/sqlparse"
)

// benchQuery is a representative Spider-dev-shaped statement: aliased
// join, WHERE, GROUP BY + HAVING with aggregates, ORDER BY and LIMIT.
const benchQuery = "SELECT T1.name, count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.id = T2.singer_id WHERE T2.year = 2014 GROUP BY T1.name HAVING count(*) > 1 ORDER BY T1.name LIMIT 5"

// TestParseAllocGate is the allocation regression gate for the
// zero-allocation front end, in the style of the sqleval index gates:
// a warm pooled parse of the representative query must stay within 9
// allocations, and a warm sqlnorm.Canonical or SelectStmt.SQL of it
// within 1 (the returned string). Measured values are recorded in
// BENCH_PR9.json and CHANGES.md; if an intentional change moves them,
// update both.
func TestParseAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are meaningless under -race (sync.Pool randomly drops values)")
	}
	p := sqlparse.AcquireParser()
	defer sqlparse.ReleaseParser(p)
	if _, err := p.Parse(benchQuery); err != nil {
		t.Fatal(err)
	}
	parseAllocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Parse(benchQuery); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm pooled parse: %.1f allocs/op", parseAllocs)
	if parseAllocs > 9 {
		t.Errorf("warm pooled parse costs %.1f allocs/op, gate is 9", parseAllocs)
	}
	stmt := sqlparse.MustParse(benchQuery)
	for _, gate := range []struct {
		name string
		fn   func() string
	}{
		{"sqlnorm.Canonical", func() string { return sqlnorm.Canonical(stmt) }},
		{"SelectStmt.SQL", stmt.SQL},
	} {
		gate.fn()
		allocs := testing.AllocsPerRun(200, func() { gate.fn() })
		t.Logf("warm %s: %.1f allocs/op", gate.name, allocs)
		if allocs > 1 {
			t.Errorf("warm %s costs %.1f allocs/op, gate is 1", gate.name, allocs)
		}
	}
}

func BenchmarkLexSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqloracle.Lex(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLexNew(b *testing.B) {
	b.ReportAllocs()
	var toks []sqllex.Token
	for i := 0; i < b.N; i++ {
		var err error
		toks, err = sqllex.LexInto(benchQuery, toks[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqloracle.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseNewPooled is the arena-reuse mode: the AST is valid
// only until the next Parse on the same parser — the shape
// bounded-lifetime callers use.
func BenchmarkParseNewPooled(b *testing.B) {
	b.ReportAllocs()
	p := sqlparse.AcquireParser()
	defer sqlparse.ReleaseParser(p)
	for i := 0; i < b.N; i++ {
		if _, err := p.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseNewDetached is what package-level Parse gives every
// caller: the arena detaches so the AST lives arbitrarily long (the
// sqleval plan cache keys on its pointer identity).
func BenchmarkParseNewDetached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheKeySeed(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqloracle.CacheKey(stmt)
	}
}

func BenchmarkCacheKeyNew(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlnorm.CacheKey(stmt)
	}
}

func BenchmarkCanonicalSeed(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqloracle.Canonical(stmt)
	}
}

func BenchmarkCanonicalNew(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqlnorm.Canonical(stmt)
	}
}

func BenchmarkSQLSeed(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqloracle.SQL(stmt)
	}
}

func BenchmarkSQLNew(b *testing.B) {
	stmt := sqlparse.MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stmt.SQL()
	}
}
