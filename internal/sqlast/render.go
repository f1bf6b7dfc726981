package sqlast

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
)

// This file is the package's one SQL renderer. It appends into a byte
// buffer in a single pass over the tree and renders three forms of the
// same statement, chosen by renderMode:
//
//   - verbatim: the statement as written. SelectStmt.SQL, SelectCore.SQL,
//     SelectItem.SQL, TableRef.SQL and ExprSQL render it into a pooled
//     buffer, so the returned string is their only allocation.
//   - plan key (AppendPlanKey): identifier case folds, literal-first
//     comparisons in WHERE/HAVING/ON orient column-first ("5 > a" renders
//     "a < 5"), and top-level WHERE conjuncts sort. sqlnorm.CacheKey keys
//     compiled plans on it.
//   - EM (AppendEM): the Spider exact-match canonical form behind
//     sqlnorm.Canonical. Tables alias positionally (t1, t2, ...), literal
//     operands mask to 'value', projection items and WHERE conjuncts sort,
//     and the result is lower-cased.
//
// The canonical forms are rendering decisions: nothing is cloned or
// mutated. Commutative lists sort by the bytes of each element's
// rendering, exactly where and how the clone-mutate-render
// canonicalizers preserved in internal/sqloracle sorted; the
// differential suites in internal/frontdiff hold every form
// byte-identical to them.

// renderMode selects which form of the statement is rendered.
type renderMode uint8

const (
	modeVerbatim renderMode = iota
	modePlanKey
	modeEM
)

// exprCtx travels down the expression recursion. The clause flags never
// cross a subquery boundary: a nested statement renders in mode sub and
// restarts per clause, like the per-core canonicalization it reproduces.
type exprCtx struct {
	mode renderMode
	// oriented marks plan-key WHERE/HAVING/ON trees, where literal-first
	// comparisons render operand-swapped.
	oriented bool
	// mask marks EM items/WHERE/HAVING trees, where a literal that is a
	// direct operand renders as 'value'.
	mask bool
	// from is the FROM clause whose tables EM qualifiers rename against;
	// nil in a core without FROM, whose EM identifiers keep their case
	// until the final lower-casing.
	from *FromClause
	// sub is the mode nested statements render in. EM sort keys render
	// subqueries verbatim: the EM canonicalizer sorts a core before it
	// normalizes that core's subqueries.
	sub renderMode
}

var verbatim = exprCtx{mode: modeVerbatim, sub: modeVerbatim}

// sortElem is one element of a commutative list: a WHERE conjunct (item
// nil) or a projection item.
type sortElem struct {
	e    Expr
	item *SelectItem
}

// span is one element's rendered sort key inside a depth buffer.
type span struct {
	start, end int
	elem       int  // index into the list being sorted
	reuse      bool // the key is also the element's output form
}

// renderer carries the pooled scratch state for one render.
type renderer struct {
	buf    []byte     // output buffer of the string-returning entry points
	elems  []sortElem // list elements (stack: mark/truncate)
	spans  []span     // rendered sort keys (stack: mark/truncate)
	segs   [][]byte   // per-nesting-depth sort-key buffers
	depth  int
	nested int // statements rendered so far; spots subqueries in a key
}

var renderPool = sync.Pool{New: func() any { return new(renderer) }}

func acquire() *renderer { return renderPool.Get().(*renderer) }

// finish returns the rendered buffer as a string and recycles r.
func (r *renderer) finish() string {
	s := string(r.buf)
	renderPool.Put(r)
	return s
}

// SQL renders the statement back to SQL text. Rendering is deterministic,
// so rendered text is safe to use as a cache key; it is re-parseable by
// sqlparse (round-trip property covered by tests).
func (s *SelectStmt) SQL() string {
	r := acquire()
	r.buf = r.appendStmt(r.buf[:0], s, modeVerbatim)
	return r.finish()
}

// SQL renders a single SELECT core. Like SelectStmt.SQL, the rendering is
// deterministic, so it doubles as a memoization key for per-core caches
// (the provenance tracker keys its rewrite cache on it).
func (c *SelectCore) SQL() string {
	r := acquire()
	r.buf = r.appendCore(r.buf[:0], c, modeVerbatim)
	return r.finish()
}

// SQL renders a projection item.
func (it SelectItem) SQL() string {
	r := acquire()
	r.buf = r.appendItem(r.buf[:0], it, verbatim)
	return r.finish()
}

// SQL renders a table reference.
func (t TableRef) SQL() string {
	r := acquire()
	r.buf = r.appendTableRef(r.buf[:0], t, verbatim)
	return r.finish()
}

// ExprSQL renders an expression to SQL text.
func ExprSQL(e Expr) string {
	r := acquire()
	r.buf = r.appendExpr(r.buf[:0], e, verbatim)
	return r.finish()
}

// AppendExprSQL appends ExprSQL(e) to dst.
func AppendExprSQL(dst []byte, e Expr) []byte {
	var r renderer // verbatim rendering never touches the scratch state
	return r.appendExpr(dst, e, verbatim)
}

// AppendPlanKey appends the plan-key form of s to dst: the statement with
// identifier case folded, literal-first comparisons in WHERE, HAVING and
// ON oriented column-first, and top-level WHERE conjuncts sorted.
// Literal values, projection order, aliases and LIMIT/OFFSET are kept,
// so two statements share the form only when one compiled plan serves
// both (up to output labels, which the plan cache appends itself).
func AppendPlanKey(dst []byte, s *SelectStmt) []byte {
	r := acquire()
	dst = r.appendStmt(dst, s, modePlanKey)
	renderPool.Put(r)
	return dst
}

// AppendEM appends the Spider exact-match canonical form of s to dst:
// positional table aliases, masked literal operands, sorted projection
// items and WHERE conjuncts, item aliases dropped, everything
// lower-cased. Two statements are EM-equal iff their forms match.
func AppendEM(dst []byte, s *SelectStmt) []byte {
	r := acquire()
	start := len(dst)
	dst = r.appendStmt(dst, s, modeEM)
	renderPool.Put(r)
	return lowerTail(dst, start)
}

// lowerTail lower-cases dst[start:] with strings.ToLower semantics: a
// byte loop for ASCII, strings.ToLower itself otherwise.
func lowerTail(dst []byte, start int) []byte {
	tail := dst[start:]
	if !isASCII(tail) {
		return append(dst[:start], strings.ToLower(string(tail))...)
	}
	for i, c := range tail {
		if 'A' <= c && c <= 'Z' {
			tail[i] = c + 'a' - 'A'
		}
	}
	return dst
}

func isASCII[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func (r *renderer) appendStmt(dst []byte, s *SelectStmt, mode renderMode) []byte {
	r.nested++
	for i, core := range s.Cores {
		if i > 0 {
			dst = append(dst, ' ')
			dst = append(dst, s.Ops[i-1]...)
			dst = append(dst, ' ')
		}
		dst = r.appendCore(dst, core, mode)
	}
	return dst
}

func (r *renderer) appendCore(dst []byte, c *SelectCore, mode renderMode) []byte {
	// pred renders WHERE and HAVING (plan keys orient them, EM masks
	// them), EM items and plan-key ON; plain renders everything else.
	plain := exprCtx{mode: mode, sub: mode}
	if mode == modeEM {
		plain.from = c.From
	}
	pred := plain
	pred.oriented = mode == modePlanKey
	pred.mask = mode == modeEM
	dst = append(dst, "SELECT "...)
	if c.Distinct {
		dst = append(dst, "DISTINCT "...)
	}
	if mode == modeEM {
		mark := len(r.elems)
		for i := range c.Items {
			r.elems = append(r.elems, sortElem{item: &c.Items[i]})
		}
		dst = r.appendSorted(dst, mark, ", ", pred)
	} else {
		for i, it := range c.Items {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = r.appendItem(dst, it, plain)
		}
	}
	if c.From != nil {
		on := plain
		if mode == modePlanKey {
			on = pred
		}
		dst = append(dst, " FROM "...)
		dst = r.appendTableRef(dst, c.From.Base, plain)
		for _, j := range c.From.Joins {
			dst = append(dst, ' ')
			dst = append(dst, j.Type...)
			dst = append(dst, ' ')
			dst = r.appendTableRef(dst, j.Table, plain)
			if j.On != nil {
				dst = append(dst, " ON "...)
				dst = r.appendExpr(dst, j.On, on)
			}
		}
	}
	if c.Where != nil {
		dst = append(dst, " WHERE "...)
		if mode == modeVerbatim || !isOp(c.Where, "AND") {
			dst = r.appendExpr(dst, c.Where, pred)
		} else {
			mark := len(r.elems)
			r.flattenAnd(c.Where)
			dst = r.appendSorted(dst, mark, " AND ", pred)
		}
	}
	if len(c.GroupBy) > 0 {
		dst = append(dst, " GROUP BY "...)
		for i, g := range c.GroupBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = r.appendExpr(dst, g, plain)
		}
	}
	if c.Having != nil {
		dst = append(dst, " HAVING "...)
		dst = r.appendExpr(dst, c.Having, pred)
	}
	if len(c.OrderBy) > 0 {
		dst = append(dst, " ORDER BY "...)
		for i, o := range c.OrderBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = r.appendExpr(dst, o.Expr, plain)
			if o.Desc {
				dst = append(dst, " DESC"...)
			}
		}
	}
	if c.Limit != nil {
		dst = append(dst, " LIMIT "...)
		dst = strconv.AppendInt(dst, *c.Limit, 10)
	}
	if c.Offset != nil {
		dst = append(dst, " OFFSET "...)
		dst = strconv.AppendInt(dst, *c.Offset, 10)
	}
	return dst
}

// flattenAnd pushes the top-level AND operands of e onto r.elems in
// left-to-right order, matching Conjuncts.
func (r *renderer) flattenAnd(e Expr) {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		r.flattenAnd(b.L)
		r.flattenAnd(b.R)
		return
	}
	r.elems = append(r.elems, sortElem{e: e})
}

// appendSorted emits the list elements r.elems[mark:] joined by sep, in
// the stable byte order of their renderings — the rendering-time form of
// sort-by-rendering, then render. Each key renders standalone into the
// buffer of the current nesting depth (subqueries in an output sort
// their own lists one depth down). Plan keys sort by the output form
// itself; EM keys render subqueries verbatim, so an element holding a
// subquery is rendered again for output. Conjuncts that are ORs emit in
// parens, exactly where rendering the rebuilt left-leaning AND tree
// would have put them.
func (r *renderer) appendSorted(dst []byte, mark int, sep string, ctx exprCtx) []byte {
	elems := r.elems[mark:]
	if len(elems) == 1 {
		dst = r.appendElem(dst, elems[0], ctx)
		r.elems = r.elems[:mark]
		return dst
	}
	key := ctx
	if ctx.mode == modeEM {
		key.sub = modeVerbatim
	}
	d := r.depth
	r.depth++
	if d == len(r.segs) {
		r.segs = append(r.segs, nil)
	}
	seg := r.segs[d][:0]
	sMark := len(r.spans)
	for i, el := range elems {
		start, nested := len(seg), r.nested
		seg = r.appendElem(seg, el, key)
		r.spans = append(r.spans, span{start: start, end: len(seg), elem: i, reuse: r.nested == nested || key == ctx})
	}
	r.segs[d] = seg
	spans := r.spans[sMark:]
	// Insertion sort with strict less: stable, allocation-free, and the
	// lists are short.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && bytes.Compare(seg[spans[j].start:spans[j].end], seg[spans[j-1].start:spans[j-1].end]) < 0; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, sep...)
		}
		el := elems[sp.elem]
		parens := el.item == nil && isOp(el.e, "OR")
		if parens {
			dst = append(dst, '(')
		}
		if sp.reuse {
			dst = append(dst, seg[sp.start:sp.end]...)
		} else {
			dst = r.appendElem(dst, el, ctx)
		}
		if parens {
			dst = append(dst, ')')
		}
	}
	r.spans = r.spans[:sMark]
	r.elems = r.elems[:mark]
	r.depth--
	return dst
}

func isOp(e Expr, op string) bool {
	b, ok := e.(*Binary)
	return ok && b.Op == op
}

func (r *renderer) appendElem(dst []byte, el sortElem, ctx exprCtx) []byte {
	if el.item != nil {
		return r.appendItem(dst, *el.item, ctx)
	}
	// A conjunct was a direct operand of an AND, so EM masks it if it is
	// a literal.
	return r.appendOperand(dst, el.e, 0, false, true, ctx)
}

func (r *renderer) appendItem(dst []byte, it SelectItem, ctx exprCtx) []byte {
	switch {
	case it.Star && it.TableStar != "":
		// EM renames a bound star qualifier but never lower-cases an
		// unbound one; the final lower-casing does.
		if n := ctx.tableIndex(it.TableStar); n > 0 {
			dst = appendAlias(dst, n)
		} else if ctx.mode == modePlanKey {
			dst = appendLower(dst, it.TableStar)
		} else {
			dst = append(dst, it.TableStar...)
		}
		dst = append(dst, ".*"...)
	case it.Star:
		dst = append(dst, '*')
	default:
		dst = r.appendExpr(dst, it.Expr, ctx)
	}
	// EM drops item aliases, but only in cores with FROM: the EM
	// canonicalizer renames (and drops) nothing in a FROM-less core.
	if it.Alias != "" && (ctx.mode != modeEM || ctx.from == nil) {
		dst = append(dst, " AS "...)
		dst = ctx.appendIdent(dst, it.Alias)
	}
	return dst
}

func (r *renderer) appendTableRef(dst []byte, t TableRef, ctx exprCtx) []byte {
	if t.Sub != nil {
		dst = append(dst, '(')
		dst = r.appendStmt(dst, t.Sub, ctx.sub)
		dst = append(dst, ')')
	} else {
		dst = ctx.appendIdent(dst, t.Name)
	}
	if ctx.mode == modeEM {
		// Every EM table is aliased by position. A later entry with the
		// same effective name wins, as it does in the alias mapping.
		dst = append(dst, " AS "...)
		return appendAlias(dst, ctx.tableIndex(t.Effective()))
	}
	if t.Alias != "" {
		dst = append(dst, " AS "...)
		dst = ctx.appendIdent(dst, t.Alias)
	}
	return dst
}

// tableIndex returns the EM positional alias number (1-based) that name
// qualifies in ctx.from: the last FROM entry whose effective name
// lower-cases to the same string. It returns 0 outside EM mode and for
// names no entry binds.
func (ctx exprCtx) tableIndex(name string) int {
	if ctx.mode != modeEM || ctx.from == nil {
		return 0
	}
	n := 0
	if lowerEqual(ctx.from.Base.Effective(), name) {
		n = 1
	}
	for i, j := range ctx.from.Joins {
		if lowerEqual(j.Table.Effective(), name) {
			n = i + 2
		}
	}
	return n
}

// appendAlias appends the EM positional alias "t<n>".
func appendAlias(dst []byte, n int) []byte {
	return strconv.AppendInt(append(dst, 't'), int64(n), 10)
}

// appendIdent appends an identifier, lower-cased in plan keys and in EM
// cores with FROM.
func (ctx exprCtx) appendIdent(dst []byte, s string) []byte {
	if ctx.mode == modePlanKey || ctx.mode == modeEM && ctx.from != nil {
		return appendLower(dst, s)
	}
	return append(dst, s...)
}

// appendLower appends strings.ToLower(s) without allocating for ASCII.
func appendLower(dst []byte, s string) []byte {
	if !isASCII(s) {
		return append(dst, strings.ToLower(s)...)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// lowerEqual reports strings.ToLower(a) == strings.ToLower(b), without
// allocating for ASCII, where it is exactly strings.EqualFold.
func lowerEqual(a, b string) bool {
	if isASCII(a) && isASCII(b) {
		return strings.EqualFold(a, b)
	}
	return strings.ToLower(a) == strings.ToLower(b)
}

// precedence for minimal parenthesization; higher binds tighter.
func precedence(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/", "%":
		return 5
	default:
		return 6
	}
}

// flipCmp returns the operand-swapped spelling of a comparison operator.
// Plan keys use it to orient literal-first comparisons: the executor
// lowers "5 > a" and "a < 5" into the same probes, so the shared plan is
// observably identical.
func flipCmp(op string) (string, bool) {
	switch op {
	case "=", "!=", "<>":
		return op, true
	case "<":
		return ">", true
	case "<=":
		return ">=", true
	case ">":
		return "<", true
	case ">=":
		return "<=", true
	}
	return "", false
}

// appendOperand renders e as an operand of a parent with precedence
// parentPrec, parenthesizing a lower-precedence Binary. Right operands
// parenthesize at equal precedence too, so non-associative trees such as
// a - (b - c) survive the round trip. Masked operands (EM) render as the
// 'value' placeholder when they are literals.
func (r *renderer) appendOperand(dst []byte, e Expr, parentPrec int, right, masked bool, ctx exprCtx) []byte {
	switch x := e.(type) {
	case *Binary:
		p := precedence(x.Op)
		if p < parentPrec || right && p == parentPrec && parentPrec >= 3 {
			dst = append(dst, '(')
			dst = r.appendExpr(dst, e, ctx)
			return append(dst, ')')
		}
	case *Literal:
		if masked && ctx.mask {
			return append(dst, "'value'"...)
		}
	}
	return r.appendExpr(dst, e, ctx)
}

func (r *renderer) appendExpr(dst []byte, e Expr, ctx exprCtx) []byte {
	if e == nil {
		return dst
	}
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			if n := ctx.tableIndex(x.Table); n > 0 {
				dst = appendAlias(dst, n)
			} else {
				dst = ctx.appendIdent(dst, x.Table)
			}
			dst = append(dst, '.')
		}
		return ctx.appendIdent(dst, x.Column)
	case *Literal:
		return x.Value.AppendSQLLiteral(dst)
	case *Unary:
		if x.Op == "NOT" {
			dst = append(dst, "NOT "...)
		} else {
			dst = append(dst, x.Op...)
		}
		return r.appendOperand(dst, x.X, 6, false, false, ctx)
	case *Binary:
		op, l, rr := x.Op, x.L, x.R
		if ctx.oriented {
			if flipped, cmp := flipCmp(op); cmp {
				if _, lLit := l.(*Literal); lLit {
					if _, rLit := rr.(*Literal); !rLit {
						l, rr, op = rr, l, flipped
					}
				}
			}
		}
		p := precedence(op)
		dst = r.appendOperand(dst, l, p, false, true, ctx)
		dst = append(dst, ' ')
		dst = append(dst, op...)
		dst = append(dst, ' ')
		return r.appendOperand(dst, rr, p, true, true, ctx)
	case *FuncCall:
		dst = append(dst, x.Name...)
		dst = append(dst, '(')
		if x.Distinct {
			dst = append(dst, "DISTINCT "...)
		}
		if x.Star {
			dst = append(dst, '*')
		} else {
			dst = r.appendList(dst, x.Args, ctx)
		}
		return append(dst, ')')
	case *InExpr:
		dst = r.appendOperand(dst, x.X, 3, false, false, ctx)
		if x.Not {
			dst = append(dst, " NOT IN ("...)
		} else {
			dst = append(dst, " IN ("...)
		}
		if x.Sub != nil {
			dst = r.appendStmt(dst, x.Sub, ctx.sub)
		} else {
			dst = r.appendList(dst, x.List, ctx)
		}
		return append(dst, ')')
	case *LikeExpr:
		dst = r.appendOperand(dst, x.X, 3, false, false, ctx)
		if x.Not {
			dst = append(dst, " NOT LIKE "...)
		} else {
			dst = append(dst, " LIKE "...)
		}
		return r.appendOperand(dst, x.Pattern, 0, false, true, ctx)
	case *BetweenExpr:
		dst = r.appendOperand(dst, x.X, 3, false, false, ctx)
		if x.Not {
			dst = append(dst, " NOT BETWEEN "...)
		} else {
			dst = append(dst, " BETWEEN "...)
		}
		dst = r.appendOperand(dst, x.Lo, 0, false, true, ctx)
		dst = append(dst, " AND "...)
		return r.appendOperand(dst, x.Hi, 0, false, true, ctx)
	case *IsNullExpr:
		dst = r.appendOperand(dst, x.X, 3, false, false, ctx)
		if x.Not {
			return append(dst, " IS NOT NULL"...)
		}
		return append(dst, " IS NULL"...)
	case *ExistsExpr:
		if x.Not {
			dst = append(dst, "NOT EXISTS ("...)
		} else {
			dst = append(dst, "EXISTS ("...)
		}
		dst = r.appendStmt(dst, x.Sub, ctx.sub)
		return append(dst, ')')
	case *SubqueryExpr:
		dst = append(dst, '(')
		dst = r.appendStmt(dst, x.Sub, ctx.sub)
		return append(dst, ')')
	default:
		return append(dst, '?')
	}
}

// appendList renders function arguments or an IN list.
func (r *renderer) appendList(dst []byte, list []Expr, ctx exprCtx) []byte {
	for i, a := range list {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = r.appendOperand(dst, a, 0, false, true, ctx)
	}
	return dst
}
