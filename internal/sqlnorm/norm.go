// Package sqlnorm canonicalizes SQL statements for the Spider exact-match
// (EM) metric, keys compiled plans (CacheKey), and classifies queries
// into the Spider difficulty buckets (easy / medium / hard / extra) used
// by the paper's Table II.
//
// EM canonicalization follows the Spider evaluation convention: identifier
// case is ignored, table aliases are renamed positionally (T1, T2, ...),
// literal values are masked ("ignoring specific values in the SQL
// statements"), and commutative conjunct/item order is sorted. Both
// canonical forms are rendered in one pass by sqlast's renderer.
package sqlnorm

import (
	"sync"

	"cyclesql/internal/sqlast"
)

// bufPool recycles the render buffers of Canonical and CacheKey.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Canonical renders the statement's EM form (sqlast.AppendEM): two
// statements are EM-equal iff their Canonical strings match. The input
// is not modified, and the returned string is the only allocation.
func Canonical(stmt *sqlast.SelectStmt) string {
	bp := bufPool.Get().(*[]byte)
	buf := sqlast.AppendEM((*bp)[:0], stmt)
	s := string(buf)
	*bp = buf
	bufPool.Put(bp)
	return s
}

// EMEqual implements the exact-match metric.
func EMEqual(a, b *sqlast.SelectStmt) bool {
	if a == nil || b == nil {
		return false
	}
	return Canonical(a) == Canonical(b)
}
