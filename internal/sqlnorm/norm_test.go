package sqlnorm

import (
	"reflect"
	"testing"

	"cyclesql/internal/sqlparse"
)

func em(t *testing.T, a, b string) bool {
	t.Helper()
	return EMEqual(sqlparse.MustParse(a), sqlparse.MustParse(b))
}

func TestEMAliasInsensitive(t *testing.T) {
	a := "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.id = T2.sid"
	b := "SELECT a.name FROM singer AS a JOIN song AS b ON a.id = b.sid"
	if !em(t, a, b) {
		t.Fatal("alias renaming must not affect EM")
	}
}

func TestEMCaseInsensitive(t *testing.T) {
	if !em(t, "select NAME from Singer", "SELECT name FROM singer") {
		t.Fatal("case must not affect EM")
	}
}

func TestEMValueInsensitive(t *testing.T) {
	if !em(t, "SELECT name FROM city WHERE pop > 100", "SELECT name FROM city WHERE pop > 999") {
		t.Fatal("literal values must not affect EM")
	}
	if em(t, "SELECT name FROM city WHERE pop > 100", "SELECT name FROM city WHERE pop >= 100") {
		t.Fatal("operators must affect EM")
	}
}

func TestEMConjunctOrderInsensitive(t *testing.T) {
	a := "SELECT name FROM city WHERE a = 1 AND b = 2"
	b := "SELECT name FROM city WHERE b = 2 AND a = 1"
	if !em(t, a, b) {
		t.Fatal("conjunct order must not affect EM")
	}
}

func TestEMSelectOrderInsensitive(t *testing.T) {
	if !em(t, "SELECT a, b FROM t", "SELECT b, a FROM t") {
		t.Fatal("projection order must not affect EM")
	}
}

func TestEMStructureSensitive(t *testing.T) {
	if em(t, "SELECT count(*) FROM t", "SELECT sum(x) FROM t") {
		t.Fatal("different aggregates must differ")
	}
	if em(t, "SELECT a FROM t", "SELECT DISTINCT a FROM t") {
		t.Fatal("DISTINCT must matter")
	}
	if em(t, "SELECT a FROM t ORDER BY a LIMIT 1", "SELECT a FROM t ORDER BY a LIMIT 3") {
		t.Fatal("LIMIT count is semantic and must matter")
	}
	if em(t, "SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC") {
		t.Fatal("sort direction must matter")
	}
}

func TestEMNestedNormalization(t *testing.T) {
	a := "SELECT name FROM t WHERE id IN (SELECT x FROM u AS Z WHERE Z.v = 5)"
	b := "SELECT name FROM t WHERE id IN (SELECT x FROM u AS K WHERE K.v = 9)"
	if !em(t, a, b) {
		t.Fatal("nested queries must normalize too")
	}
}

func TestEMSelfInverse(t *testing.T) {
	sql := "SELECT T1.name, count(*) FROM a AS T1 JOIN b AS T2 ON T1.id = T2.aid WHERE T2.x = 'v' GROUP BY T1.name HAVING count(*) > 2 ORDER BY count(*) DESC LIMIT 5"
	stmt := sqlparse.MustParse(sql)
	once := Canonical(stmt)
	twice := Canonical(sqlparse.MustParse(once))
	if once != twice {
		t.Fatalf("normalization must be idempotent:\n1 %s\n2 %s", once, twice)
	}
}

func TestCanonicalDoesNotMutateInput(t *testing.T) {
	stmt := sqlparse.MustParse("SELECT T1.name AS n, T1.Age FROM singer AS T1 WHERE T1.age > 30 AND T1.name = 'Joe'")
	want := sqlparse.MustParse(stmt.SQL())
	Canonical(stmt)
	if !reflect.DeepEqual(stmt, want) {
		t.Fatalf("Canonical mutated its input: %s", stmt.SQL())
	}
}

func TestClassifyDifficultyBuckets(t *testing.T) {
	cases := map[string]Difficulty{
		"SELECT name FROM singer":                                                         Easy,
		"SELECT name FROM singer WHERE age > 30":                                          Easy,
		"SELECT name, age FROM singer WHERE age > 30":                                     Medium,
		"SELECT count(*) FROM singer WHERE age > 30 AND country = 'US' OR country = 'UK'": Medium,
		"SELECT name, age FROM singer WHERE a = 1 AND b = 2 GROUP BY name, age":           Hard,
		"SELECT name FROM singer WHERE id IN (SELECT sid FROM song)":                      Hard,
		"SELECT a FROM t UNION SELECT b FROM u":                                           Hard,
		"SELECT T1.name FROM a AS T1 JOIN b AS T2 ON T1.id = T2.aid WHERE T2.x = 'v' AND T2.y = 1 GROUP BY T1.name HAVING count(*) > 2 ORDER BY count(*) DESC LIMIT 5": ExtraHard,
		"SELECT name FROM t WHERE id IN (SELECT x FROM u WHERE v IN (SELECT w FROM z))":                                                                                ExtraHard,
	}
	for sql, want := range cases {
		if got := Classify(sqlparse.MustParse(sql)); got != want {
			t.Errorf("Classify(%q) = %s want %s", sql, got, want)
		}
	}
}

func TestClassifyMonotoneUnderAddedClauses(t *testing.T) {
	base := Classify(sqlparse.MustParse("SELECT name FROM singer"))
	more := Classify(sqlparse.MustParse("SELECT name FROM singer WHERE a = 1 AND b = 2 GROUP BY name ORDER BY name LIMIT 3"))
	rank := map[Difficulty]int{Easy: 0, Medium: 1, Hard: 2, ExtraHard: 3}
	if rank[more] < rank[base] {
		t.Fatalf("adding clauses lowered difficulty: %s -> %s", base, more)
	}
}

func cacheKey(t *testing.T, sql string) string {
	t.Helper()
	return CacheKey(sqlparse.MustParse(sql))
}

func TestCacheKeyFoldsCaseWhitespaceAndConjunctOrder(t *testing.T) {
	base := cacheKey(t, "SELECT flno FROM Flight WHERE origin = 'Chicago' AND aid > 2")
	for _, sql := range []string{
		"select flno from FLIGHT where ORIGIN = 'Chicago' and AID > 2",
		"SELECT  flno  FROM  flight  WHERE  origin  =  'Chicago'  AND  aid  >  2",
		"SELECT flno FROM flight WHERE aid > 2 AND origin = 'Chicago'",
	} {
		if cacheKey(t, sql) != base {
			t.Errorf("CacheKey(%q) must equal the base key", sql)
		}
	}
	// Projection identifier case folds everywhere except the output label,
	// which compiled plans embed verbatim.
	if cacheKey(t, "SELECT FLNO FROM Flight WHERE origin = 'Chicago' AND aid > 2") == base {
		t.Error("projection label case is observable and must not fold")
	}
}

func TestCacheKeyPreservesSemantics(t *testing.T) {
	base := cacheKey(t, "SELECT flno FROM flight WHERE origin = 'Chicago' ORDER BY flno LIMIT 2")
	for _, sql := range []string{
		// Literal values, text-literal case, projection order, aliases,
		// LIMIT, and DISTINCT are all semantic: plans are not shareable.
		"SELECT flno FROM flight WHERE origin = 'Boston' ORDER BY flno LIMIT 2",
		"SELECT flno FROM flight WHERE origin = 'CHICAGO' ORDER BY flno LIMIT 2",
		"SELECT flno FROM flight WHERE origin = 'Chicago' ORDER BY flno LIMIT 3",
		"SELECT flno AS f FROM flight WHERE origin = 'Chicago' ORDER BY flno LIMIT 2",
		"SELECT DISTINCT flno FROM flight WHERE origin = 'Chicago' ORDER BY flno LIMIT 2",
	} {
		if cacheKey(t, sql) == base {
			t.Errorf("CacheKey(%q) must differ from the base key", sql)
		}
	}
	a := cacheKey(t, "SELECT a, b FROM t")
	b := cacheKey(t, "SELECT b, a FROM t")
	if a == b {
		t.Error("projection order is semantic and must not fold")
	}
}

func TestCacheKeyNormalizesSubqueries(t *testing.T) {
	a := cacheKey(t, "SELECT name FROM singer WHERE id IN (SELECT sid FROM song WHERE x = 1 AND y = 2)")
	b := cacheKey(t, "SELECT name FROM SINGER WHERE id IN (SELECT sid FROM song WHERE Y = 2 AND X = 1)")
	if a != b {
		t.Error("subquery conjunct order and case must fold into the same key")
	}
}

func TestCacheKeyDoesNotMutateInput(t *testing.T) {
	stmt := sqlparse.MustParse("SELECT Flno FROM Flight WHERE Origin = 'Chicago' AND aid > 2")
	before := stmt.SQL()
	_ = CacheKey(stmt)
	if stmt.SQL() != before {
		t.Error("CacheKey must canonicalize a clone, not the input")
	}
}

func TestCacheKeySubqueryCaseCannotReorderConjuncts(t *testing.T) {
	a := cacheKey(t, "SELECT name FROM singer WHERE id IN (SELECT sid FROM Zong) AND id IN (SELECT sid FROM abba)")
	b := cacheKey(t, "SELECT name FROM singer WHERE id IN (SELECT sid FROM zong) AND id IN (SELECT sid FROM abba)")
	if a != b {
		t.Error("subqueries must be canonicalized before the outer conjunct sort")
	}
}

func TestCacheKeyOrientsLiteralFirstComparisons(t *testing.T) {
	a := cacheKey(t, "SELECT name FROM singer WHERE age < 30")
	b := cacheKey(t, "SELECT name FROM singer WHERE 30 > age")
	if a != b {
		t.Error("literal-first comparisons must orient onto the column-first key")
	}
	c := cacheKey(t, "SELECT name FROM singer WHERE 30 >= age")
	if a == c {
		t.Error("orientation must flip the operator, not just swap operands")
	}
	if cacheKey(t, "SELECT name FROM singer WHERE 5 = age") != cacheKey(t, "SELECT name FROM singer WHERE age = 5") {
		t.Error("literal-first equality must orient too")
	}
	// Range pairs spelled in either orientation and order share one key.
	d := cacheKey(t, "SELECT name FROM singer WHERE age > 20 AND age < 30")
	e := cacheKey(t, "SELECT name FROM singer WHERE 30 > age AND 20 < age")
	if d != e {
		t.Error("range predicate pairs must fold regardless of spelling and order")
	}
	// Constant comparisons and projection items are left alone.
	if cacheKey(t, "SELECT 5 > age FROM singer") == cacheKey(t, "SELECT age < 5 FROM singer") {
		t.Error("projection items carry observable labels and must not orient")
	}
}

func TestCacheKeyOrientationPreservesSemantics(t *testing.T) {
	// EM canonicalization is untouched by cache-key orientation.
	a := sqlparse.MustParse("SELECT name FROM singer WHERE 30 > age")
	before := Canonical(a)
	_ = CacheKey(a)
	if Canonical(a) != before {
		t.Error("CacheKey must not leak orientation into the input or EM path")
	}
}
