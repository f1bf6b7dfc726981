package sqlnorm

import (
	"sync"

	"cyclesql/internal/sqlast"
)

// CacheKey returns a value-preserving canonical rendering of stmt, meant
// for keying compiled-plan caches: identifier case folds, the
// deterministic re-rendering normalizes whitespace, literal-first
// comparisons orient column-first, and commutative WHERE conjuncts sort
// (sqlast.AppendPlanKey) — but, unlike Canonical, literal values,
// projection order, aliases, and LIMIT/OFFSET are all kept, because
// plans compiled from statements that differ in any of those are not
// interchangeable. A compiled plan also embeds its output column labels
// with the original identifier case, so the key carries the unfolded
// projection labels: two statements share a CacheKey only when a shared
// plan is observably identical, labels included. Textually identical
// statements (the common case: the same candidate SQL resurfacing in a
// different beam) always share a CacheKey.
func CacheKey(stmt *sqlast.SelectStmt) string {
	bp := bufPool.Get().(*[]byte)
	buf := sqlast.AppendPlanKey((*bp)[:0], stmt)
	for _, core := range stmt.Cores {
		for _, it := range core.Items {
			buf = append(buf, '\x00')
			switch {
			case it.Alias != "":
				buf = append(buf, it.Alias...)
			case it.Star:
				// Star expansion labels come from the (already lowered)
				// stored column names, so stars are case-independent.
			default:
				buf = sqlast.AppendExprSQL(buf, it.Expr)
			}
		}
	}
	key := internKey(buf)
	*bp = buf
	bufPool.Put(bp)
	return key
}

// Bounded intern table: CacheKey's callers immediately use the key in a
// map, so returning the one shared string per distinct key makes the
// warm path allocation-free (the map lookup below compiles without a
// []byte→string copy). The bound keeps an adversarial query stream from
// growing the table without limit; beyond it, keys are returned
// un-interned.
const maxInternedKeys = 4096

var (
	internMu sync.RWMutex
	interned = make(map[string]string, 256)
)

func internKey(b []byte) string {
	internMu.RLock()
	s, ok := interned[string(b)]
	internMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	internMu.Lock()
	if len(interned) < maxInternedKeys {
		interned[s] = s
	}
	internMu.Unlock()
	return s
}
