// Package sqleval executes sqlast statements against a storage.Database.
// It implements the full Spider dialect: equi-joins (inner and left),
// tri-state WHERE logic, grouping with HAVING, the five SQL aggregates
// with DISTINCT, ordering, limits, set operations, and correlated
// subqueries (IN, EXISTS, scalar). Subqueries that reference no outer row
// run once per execution, on first use, and IN probes their result
// through a hash set; correlated ones re-run per outer row.
//
// The executor is a two-phase compile-and-execute engine. The compile
// phase (compile.go) runs once per statement: it resolves every column
// reference to a fixed frame coordinate, expands stars, detects equi-join
// keys in ON and WHERE, lowers col = literal conjuncts into hash-index
// point probes and comparison/BETWEEN conjuncts into sorted-index range
// probes, recognizes ORDER BY col [LIMIT k] orderings that can stream off
// a sorted index, pushes the remaining filters below inner joins, gives
// every aggregate call of a grouped core an accumulator slot, and lowers
// every expression into a closure. The execute phase runs each core as a
// push pipeline: base-scan rows (read straight off the table, a point
// lookup or a range span) pass the pushed-down filters and flow through
// one join stage per joined table, each writing combined rows into one
// reused scratch frame, into the post-join filters; every surviving row
// is either projected at once or, for a grouped core, folded into its
// group's aggregate accumulators (aggregate.go) in the same pass, and the
// groups are projected when the input ends. No joined row, per-group row
// list or per-evaluation aggregate value list is ever built. Join stages
// reuse the table's column index for single-column equi keys and its
// composite index for multi-key ones instead of rebuilding a hash table
// per execution; otherwise they hash the smaller side (holding their input
// until they know which that is), with a nested-loop fallback for
// non-equi conditions. Ordered output with a sorted-index order streams
// in index order with early cutoff under LIMIT (stream.go). Closures
// evaluate directly against flat rows — no per-row environment
// allocation, no name lookups — and compact binary row keys
// (sqltypes.AppendKey) back every dedup, grouping, and join-matching
// structure. Compiled plans are cached per executor, first by statement
// identity and then by canonical SQL (sqlnorm.CacheKey), so re-executing
// a statement — or a textually identical candidate arriving as a distinct
// AST from another beam — skips straight to execution; a plan compiled
// before a copy-on-write swap replaced a table it reads is recompiled.
// Statements must not be mutated between executions through the same
// executor.
//
// An Executor is safe for concurrent Exec calls: execution state (the
// subquery-depth guard, row contexts, scratch buffers, the memo of
// uncorrelated subquery results) lives on the call stack, the plan cache
// is guarded by a read-mostly lock, and the storage layer guards its lazy
// index builds. The NestedLoopOnly and NoIndexes flags must be set before
// the first Exec and not changed afterwards, and the database contents
// must not be mutated while executions are in flight (the store itself
// documents the same reader/writer contract).
//
// Cancellation: ExecContext aborts a running query when its context is
// cancelled. The context is checked on entry to every program (so a
// statement — or a correlated subquery evaluated per outer row, or an
// uncorrelated one on its single run — never starts against a dead
// context) and then polled every cancelCheckInterval rows inside the
// base-scan, join-stage and group-output loops, so even a single
// pathological cross join returns within a bounded number of row visits
// of the cancellation. Exec is ExecContext
// with a background context — the paper's sequential loop and the many
// one-shot executions in this repository pay no cancellation plumbing.
package sqleval

import (
	"context"
	"fmt"
	"sync"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Executor evaluates SELECT statements against one database.
type Executor struct {
	db *storage.Database
	// mu guards the two plan maps; compiled plans themselves are immutable
	// after compilation, so concurrent executions share them freely.
	mu sync.RWMutex
	// plans caches compiled programs by statement identity (the fast path
	// for re-executing the same AST), plansByKey by canonical SQL, so
	// textually identical statements arriving as distinct ASTs share one
	// compiled plan. Both maps hold the same programs. Sharing stays sound
	// under cost-based planning because sqlnorm.CacheKey canonicalizes the
	// statement WITH its literals: two statements can only share a key by
	// having identical literals, hence identical estimated selectivities —
	// a plan chosen for one is the plan that would be chosen for the other.
	// Plans are costed against the statistics visible at first compile and
	// deliberately not re-costed as the database grows; callers that want
	// fresh plans after bulk loads use a fresh executor (the serving layer
	// already creates one per snapshot). A plan is recompiled, though, when
	// a copy-on-write swap replaced a relation it binds (see compiled).
	plans      map[*sqlast.SelectStmt]*program
	plansByKey map[string]*program

	// NestedLoopOnly disables equi-join detection, filter pushdown, and
	// index probes so every join runs the nested-loop fallback. It exists
	// to verify that the join paths produce identical relations; set it
	// before the first Exec of a statement (plans are cached per statement).
	NestedLoopOnly bool

	// NoIndexes disables secondary-index probes and index-backed join build
	// sides while keeping hash joins and filter pushdown, so every access
	// path scans Relation.Rows. It exists to verify and benchmark the
	// indexed paths against the scan paths; set it before the first Exec.
	NoIndexes bool

	// Syntactic reverts plan selection to the pre-statistics lowering:
	// first qualifying point probe wins, range probes refuse keyed build
	// sides, joins stay in FROM order. Every choice the cost-based planner
	// makes is output-identical to this mode by construction; TestPlanParity
	// holds it to that. Set before the first Exec.
	Syntactic bool

	// trace, when non-nil, receives actual row counts keyed by plan-node id
	// during execution. It is only ever set on the throwaway executor
	// PlanTree builds for itself, so normal executions — including
	// concurrent ones — pay a single nil check per recording site.
	trace *execTrace
}

// New returns an executor over db.
func New(db *storage.Database) *Executor { return &Executor{db: db} }

// maxSubqueryDepth bounds nesting; benchmark queries nest at most 3 deep.
const maxSubqueryDepth = 16

// maxCachedPlans bounds the per-executor plan cache; long-lived executors
// (the CycleSQL pipeline keeps one per database) reset it on overflow.
const maxCachedPlans = 512

// cancelCheckInterval is how many rows an inner loop visits between
// context polls (power of two so the check compiles to a mask). 1024 rows
// keeps the steady-state cost of cancellation support to one counter
// increment per row while bounding the abort latency of the tightest
// loops to microseconds.
const cancelCheckInterval = 1024

// cancelCheck amortizes ctx.Err polling over inner-loop iterations; the
// zero count means the first poll happens a full interval in, so short
// queries never pay a context read at all.
type cancelCheck struct {
	ctx context.Context
	n   uint
}

// poll returns the context's error every cancelCheckInterval calls, nil
// otherwise.
func (cc *cancelCheck) poll() error {
	cc.n++
	if cc.n&(cancelCheckInterval-1) != 0 {
		return nil
	}
	return cc.ctx.Err()
}

// Exec compiles the statement (or reuses its cached plan) and returns its
// result relation. It never aborts early; callers that need cancellation
// or timeouts use ExecContext. The result's rows are the caller's, but
// its Columns slice is shared with the compiled plan and every other
// result of the statement, so it must not be mutated (Relation.Clone
// copies it).
func (ex *Executor) Exec(stmt *sqlast.SelectStmt) (*sqltypes.Relation, error) {
	//vetcycle:allow ctxflow -- documented one-shot wrapper over ExecContext
	return ex.ExecContext(context.Background(), stmt)
}

// ExecContext is Exec with cancellation: the query aborts with the
// context's error as soon as a cancellation check observes ctx done —
// immediately for a context cancelled before the call, within
// cancelCheckInterval row visits for one cancelled mid-query. The
// CycleSQL loop uses this to abandon in-flight speculative candidate
// executions once an earlier candidate validates, and the batch
// experiment driver to enforce per-example timeouts.
func (ex *Executor) ExecContext(ctx context.Context, stmt *sqlast.SelectStmt) (*sqltypes.Relation, error) {
	if ctx == nil {
		//vetcycle:allow ctxflow -- nil-ctx guard for legacy callers; nothing upstream to thread
		ctx = context.Background()
	}
	prog, err := ex.compiled(stmt)
	if err != nil {
		return nil, err
	}
	return ex.run(ctx, prog)
}

// compiled returns the cached program for stmt, compiling it on a miss. A
// cached program is current only while the database's table generation is
// the one it was compiled at: plans bind base-table relations directly,
// and a copy-on-write swap (the first write after a Snapshot) replaces a
// relation, so a plan from an older generation is recompiled instead of
// reading the replaced relation. In-place inserts keep the generation, and
// the plans.
func (ex *Executor) compiled(stmt *sqlast.SelectStmt) (*program, error) {
	gen := ex.db.TableGen()
	ex.mu.RLock()
	if p, ok := ex.plans[stmt]; ok && p.gen == gen {
		ex.mu.RUnlock()
		return p, nil
	}
	key := sqlnorm.CacheKey(stmt)
	p, ok := ex.plansByKey[key]
	ex.mu.RUnlock()
	if ok && p.gen == gen {
		ex.storePlan(stmt, key, p)
		return p, nil
	}
	// Compile outside the lock; concurrent compilations of the same
	// statement are idempotent (programs are interchangeable), the last
	// store wins. The generation is read before compiling, so a swap
	// racing the compilation leaves the plan marked stale.
	c := &compiler{ex: ex}
	p, err := c.compileStmt(stmt, nil)
	if err != nil {
		return nil, err
	}
	p.nodes, p.memos, p.gen = c.nodes, len(c.memoized), gen
	ex.storePlan(stmt, key, p)
	return p, nil
}

func (ex *Executor) storePlan(stmt *sqlast.SelectStmt, key string, p *program) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.plans == nil {
		ex.plans = make(map[*sqlast.SelectStmt]*program)
		ex.plansByKey = make(map[string]*program)
	} else if len(ex.plans) >= maxCachedPlans {
		clear(ex.plans)
		clear(ex.plansByKey)
	}
	ex.plans[stmt] = p
	ex.plansByKey[key] = p
}

// run executes a compiled top-level program. A program with uncorrelated
// subqueries starts from a fresh row-less root context carrying this
// execution's memo, which every row context of the execution reaches
// through its parent chain; the memo lives and dies with the execution,
// never on the shared program or the executor, so concurrent executions
// stay independent and a re-execution sees the database as it is then. A
// program without them starts from no context and allocates nothing here.
func (ex *Executor) run(ctx context.Context, p *program) (*sqltypes.Relation, error) {
	var root *rowCtx
	if p.memos > 0 {
		root = &rowCtx{memo: make([]memoSlot, p.memos)}
	}
	return ex.runProgram(ctx, p, root, 1)
}

// runProgram executes a compiled program. depth is the current subquery
// nesting (1 for a top-level statement); depth and ctx thread through the
// call chain — and into row contexts, for subquery closures — instead of
// living on the executor, so concurrent executions cannot observe each
// other. The entry check makes an already-cancelled context return before
// any rows are visited, and gives correlated subqueries (re-entered here
// once per outer row) a natural per-row cancellation point; an
// uncorrelated subquery enters here once per execution, on first use.
func (ex *Executor) runProgram(ctx context.Context, p *program, outer *rowCtx, depth int) (*sqltypes.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if depth > maxSubqueryDepth {
		return nil, fmt.Errorf("sqleval: subquery nesting exceeds %d", maxSubqueryDepth)
	}
	result, err := ex.runCore(ctx, p.cores[0], outer, depth)
	if err != nil {
		return nil, err
	}
	for i, op := range p.ops {
		rhs, err := ex.runCore(ctx, p.cores[i+1], outer, depth)
		if err != nil {
			return nil, err
		}
		result, err = combine(result, rhs, op)
		if err != nil {
			return nil, err
		}
	}
	return result, nil
}

func combine(l, r *sqltypes.Relation, op sqlast.CompoundOp) (*sqltypes.Relation, error) {
	if l.NumCols() != r.NumCols() {
		return nil, fmt.Errorf("sqleval: %s operands have %d vs %d columns", op, l.NumCols(), r.NumCols())
	}
	out := sqltypes.NewRelation(l.Columns...)
	var buf []byte
	switch op {
	case sqlast.UnionAll:
		out.Rows = append(append(out.Rows, l.Rows...), r.Rows...)
	case sqlast.Union:
		seen := make(map[string]struct{}, len(l.Rows))
		for _, rows := range [][]sqltypes.Row{l.Rows, r.Rows} {
			for _, row := range rows {
				buf = row.AppendKey(buf[:0])
				if _, dup := seen[string(buf)]; !dup {
					seen[string(buf)] = struct{}{}
					out.Append(row)
				}
			}
		}
	case sqlast.Intersect:
		inR := make(map[string]struct{}, len(r.Rows))
		for _, row := range r.Rows {
			buf = row.AppendKey(buf[:0])
			inR[string(buf)] = struct{}{}
		}
		seen := make(map[string]struct{})
		for _, row := range l.Rows {
			buf = row.AppendKey(buf[:0])
			if _, hit := inR[string(buf)]; !hit {
				continue
			}
			if _, dup := seen[string(buf)]; !dup {
				seen[string(buf)] = struct{}{}
				out.Append(row)
			}
		}
	case sqlast.Except:
		inR := make(map[string]struct{}, len(r.Rows))
		for _, row := range r.Rows {
			buf = row.AppendKey(buf[:0])
			inR[string(buf)] = struct{}{}
		}
		seen := make(map[string]struct{})
		for _, row := range l.Rows {
			buf = row.AppendKey(buf[:0])
			if _, hit := inR[string(buf)]; hit {
				continue
			}
			if _, dup := seen[string(buf)]; !dup {
				seen[string(buf)] = struct{}{}
				out.Append(row)
			}
		}
	default:
		return nil, fmt.Errorf("sqleval: unknown set operation %q", op)
	}
	return out, nil
}

// runCore executes one compiled SELECT core. Apart from the ordered index
// walks of runStream, every core runs as one push pipeline (pipe): frame
// rows stream from the base scan through the join stages into the
// post-join filters, and each surviving row goes either straight into the
// projection or, for a grouped core, into the hash aggregate, which
// projects once per group after the input ends. No joined row, group row
// list or per-evaluation aggregate value list is built.
func (ex *Executor) runCore(ctx context.Context, cc *compiledCore, outer *rowCtx, depth int) (*sqltypes.Relation, error) {
	if cc.stream != nil {
		return ex.runStream(ctx, cc, outer, depth)
	}
	r := &coreRun{cc: cc, rc: rowCtx{parent: outer, depth: depth, qctx: ctx}}
	if cc.grouped {
		r.agg = newHashAgg(cc)
	}
	if err := ex.pipe(ctx, r); err != nil {
		return nil, err
	}
	if r.agg != nil {
		if err := r.agg.emit(&r.rc, &r.out); err != nil {
			return nil, err
		}
	}
	result := r.out.finish(cc)
	if ex.trace != nil {
		ex.trace.addRows(cc.filterID, r.kept)
		ex.trace.addRows(cc.id, int64(len(result.Rows)))
	}
	return result, nil
}

// coreRun is one pipelined execution of a core: the row context every
// closure of the core evaluates in, and the sink the pipeline feeds.
type coreRun struct {
	cc   *compiledCore
	rc   rowCtx
	out  projection
	agg  *hashAgg // grouped cores only
	kept int64    // rows that passed the post-join filters
}

// consume is the pipeline's sink: the post-join filters, then projection
// or accumulation.
func (r *coreRun) consume(row sqltypes.Row) error {
	r.rc.row = row
	if len(r.cc.filters) > 0 {
		ok, err := truthyAll(r.cc.filters, &r.rc)
		if err != nil || !ok {
			return err
		}
		r.kept++
	}
	if r.agg != nil {
		return r.agg.add(&r.rc)
	}
	return r.out.add(r.cc, &r.rc)
}

// truthyAll reports whether every conjunct evaluates truthy (tri-state AND
// over a pre-split conjunct list, short-circuiting on the first non-truthy
// value, exactly like the legacy single-expression Kleene AND).
func truthyAll(filters []compiledExpr, ctx *rowCtx) (bool, error) {
	for _, fn := range filters {
		v, err := fn(ctx)
		if err != nil {
			return false, err
		}
		if !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// rowSink consumes one frame row. The row is valid only for the call:
// join stages overwrite their scratch frame for every pair, so a sink that
// keeps a row copies it.
type rowSink func(row sqltypes.Row) error

// pipe streams a core's frame rows into r.consume: every base-scan row
// that passes the pushed-down conjuncts (evaluated in the core's row
// context) is pushed through the join stages, the last of which feeds the
// sink; then each stage is flushed in FROM order. The right-hand inputs
// are all read, in FROM order, before the first row flows.
func (ex *Executor) pipe(ctx context.Context, r *coreRun) error {
	cc, rc := r.cc, &r.rc
	outer, depth := rc.parent, rc.depth
	if len(cc.scans) == 0 {
		// SELECT without FROM evaluates items once over an empty row.
		return r.consume(sqltypes.Row{})
	}
	base, err := cc.scans[0].rows(ctx, ex, outer, depth)
	if err != nil {
		return err
	}
	if r.agg == nil && len(cc.joins) == 0 && len(cc.baseFilters) == 0 && len(cc.filters) == 0 {
		// Every base row becomes an output row: size the output once.
		r.out.rows = make([]sqltypes.Row, 0, len(base))
	}
	var stages []joinStage
	if len(cc.joins) > 0 {
		stages = make([]joinStage, len(cc.joins))
		accW := cc.scans[0].width
		for i, jp := range cc.joins {
			next := cc.scans[i+1]
			right, err := next.rows(ctx, ex, outer, depth)
			if err != nil {
				return err
			}
			stages[i].init(ctx, ex, jp, next, right, accW, outer, depth)
			accW += next.width
		}
		// Base and derived-table rows outlive the push; frames do not.
		stages[0].stable = true
		last := len(stages) - 1
		for i := range last {
			stages[i].emit = stages[i+1].push
		}
		stages[last].emit = r.consume
	}
	cancel := cancelCheck{ctx: ctx}
	for _, row := range base {
		if err := cancel.poll(); err != nil {
			return err
		}
		if len(cc.baseFilters) > 0 {
			rc.row = row
			ok, err := truthyAll(cc.baseFilters, rc)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if stages != nil {
			err = stages[0].push(row)
		} else {
			err = r.consume(row)
		}
		if err != nil {
			return err
		}
	}
	for i := range stages {
		if err := stages[i].flush(); err != nil {
			return err
		}
	}
	if ex.trace != nil {
		for i := range stages {
			ex.trace.addRows(cc.joins[i].id, stages[i].rows)
			ex.trace.addPairs(cc.joins[i].id, stages[i].pairs)
		}
	}
	return nil
}

// joinStage joins every frame row pushed into it with one table and
// pushes each combined row on through one scratch frame, overwritten per
// pair. With equi keys against a whole base table it probes the table's
// column index (its composite index for multi-key joins) — the prebuilt
// equivalent of the hash table the generic path rebuilds per execution.
// With equi keys otherwise it hashes the smaller side: the stage holds
// its input until it has seen as many rows as the table has, then builds
// on the table and streams; if the input ends first, flush builds on the
// held rows and scans the table once. Without keys it runs a nested loop.
// All paths emit rows in identical order (left-major, right rows in scan
// order) and null-extend unmatched left rows inline for LEFT JOIN,
// matching rows by index — never by value — so duplicate-valued rows
// cannot collide.
type joinStage struct {
	jp      *joinPlan
	right   []sqltypes.Row
	accW    int
	scratch sqltypes.Row
	rc      rowCtx
	emit    rowSink
	// One amortized cancellation counter covers every left row, candidate
	// pair and build-side row, so even an n×m nested loop observes
	// cancellation within cancelCheckInterval visits.
	cancel cancelCheck
	// lookup probes a reused index; ht is the hash table built on the
	// table; pending marks a hashed join still holding its input.
	lookup  func([]byte) []int32
	ht      map[string][]int32
	pending bool
	// stable reports that pushed rows outlive the push, so held rows are
	// kept by reference; otherwise they are copied into arena, accW
	// values each.
	stable bool
	held   []sqltypes.Row
	arena  []sqltypes.Value
	nheld  int
	buf    []byte
	// rows and pairs count emitted rows and candidate pairs for EXPLAIN.
	rows, pairs int64
}

func (s *joinStage) init(ctx context.Context, ex *Executor, jp *joinPlan, next *tableScan, right []sqltypes.Row, accW int, outer *rowCtx, depth int) {
	s.jp, s.right, s.accW = jp, right, accW
	s.scratch = make(sqltypes.Row, accW+next.width)
	s.rc = rowCtx{parent: outer, row: s.scratch, depth: depth, qctx: ctx}
	s.cancel = cancelCheck{ctx: ctx}
	switch {
	case len(jp.eqAcc) == 0:
	case !ex.NoIndexes && next.sub == nil && next.probe == nil && next.rprobe == nil:
		// The build side is a whole base table: reuse (or lazily build,
		// once per database) its column or composite index. Index buckets
		// hold row positions in scan order and share the Compare-consistent
		// AppendCompareKey encoding of the hashed path, so the matched
		// pairs and their order are bit-identical.
		if len(jp.eqNew) == 1 {
			s.lookup = ex.db.Index(next.table, jp.eqNew[0]).Lookup
		} else {
			s.lookup = ex.db.Composite(next.table, jp.eqNew).Lookup
		}
	default:
		// An empty table is never larger than the input: probe its (empty)
		// hash table from the first row.
		s.pending = len(right) > 0
	}
}

// push joins one input row, or holds it while a hashed join is still
// choosing its build side.
func (s *joinStage) push(lrow sqltypes.Row) error {
	if !s.pending {
		return s.probe(lrow)
	}
	if s.stable {
		s.held = append(s.held, lrow)
	} else {
		s.arena = append(s.arena, lrow...)
	}
	s.nheld++
	if s.nheld < len(s.right) {
		return nil
	}
	// The input is at least as large as the table: build on the table and
	// replay the held rows in order.
	s.pending = false
	s.ht = make(map[string][]int32, len(s.right))
	for ri, rrow := range s.right {
		if err := s.cancel.poll(); err != nil {
			return err
		}
		key, ok := joinKey(s.buf[:0], rrow, s.jp.eqNew)
		if !ok {
			continue
		}
		s.buf = key
		s.ht[string(key)] = append(s.ht[string(key)], int32(ri))
	}
	for i := 0; i < s.nheld; i++ {
		if err := s.probe(s.heldRow(i)); err != nil {
			return err
		}
	}
	s.held, s.arena, s.nheld = nil, nil, 0
	return nil
}

func (s *joinStage) heldRow(i int) sqltypes.Row {
	if s.stable {
		return s.held[i]
	}
	return s.arena[i*s.accW : (i+1)*s.accW]
}

// probe emits every match of one input row: the whole table for a nested
// loop, else the bucket of its key in the reused index or the table's
// hash table.
func (s *joinStage) probe(lrow sqltypes.Row) error {
	if err := s.cancel.poll(); err != nil {
		return err
	}
	copy(s.scratch, lrow)
	matched := false
	if len(s.jp.eqAcc) == 0 {
		for _, rrow := range s.right {
			hit, err := s.tryPair(rrow)
			if err != nil {
				return err
			}
			matched = matched || hit
		}
	} else if key, ok := joinKey(s.buf[:0], lrow, s.jp.eqAcc); ok {
		s.buf = key
		var ids []int32
		if s.lookup != nil {
			ids = s.lookup(key)
		} else {
			ids = s.ht[string(key)]
		}
		for _, ri := range ids {
			hit, err := s.tryPair(s.right[ri])
			if err != nil {
				return err
			}
			matched = matched || hit
		}
	}
	if s.jp.left && !matched {
		return s.nullExtend()
	}
	return nil
}

// tryPair evaluates the residual over the scratch frame (left part already
// filled) and emits on success.
func (s *joinStage) tryPair(rrow sqltypes.Row) (bool, error) {
	s.pairs++
	if err := s.cancel.poll(); err != nil {
		return false, err
	}
	copy(s.scratch[s.accW:], rrow)
	if len(s.jp.residual) > 0 {
		ok, err := truthyAll(s.jp.residual, &s.rc)
		if err != nil || !ok {
			return false, err
		}
	}
	s.rows++
	return true, s.emit(s.scratch)
}

func (s *joinStage) nullExtend() error {
	for i := s.accW; i < len(s.scratch); i++ {
		s.scratch[i] = sqltypes.Null()
	}
	s.rows++
	return s.emit(s.scratch)
}

// flush finishes a hashed join whose whole input was smaller than its
// table: it builds on the held rows, scans the table once, and replays
// the held rows in order, each with its matches in table order.
func (s *joinStage) flush() error {
	if !s.pending {
		return nil
	}
	s.pending = false
	n := s.nheld
	ht := make(map[string][]int32, n)
	for li := 0; li < n; li++ {
		if err := s.cancel.poll(); err != nil {
			return err
		}
		key, ok := joinKey(s.buf[:0], s.heldRow(li), s.jp.eqAcc)
		if !ok {
			continue
		}
		s.buf = key
		ht[string(key)] = append(ht[string(key)], int32(li))
	}
	matches := make([][]int32, n)
	for ri, rrow := range s.right {
		if err := s.cancel.poll(); err != nil {
			return err
		}
		key, ok := joinKey(s.buf[:0], rrow, s.jp.eqNew)
		if !ok {
			continue
		}
		s.buf = key
		for _, li := range ht[string(key)] {
			matches[li] = append(matches[li], int32(ri))
		}
	}
	for li := 0; li < n; li++ {
		if err := s.cancel.poll(); err != nil {
			return err
		}
		copy(s.scratch, s.heldRow(li))
		matched := false
		for _, ri := range matches[li] {
			hit, err := s.tryPair(s.right[ri])
			if err != nil {
				return err
			}
			matched = matched || hit
		}
		if s.jp.left && !matched {
			if err := s.nullExtend(); err != nil {
				return err
			}
		}
	}
	return nil
}

// joinKey encodes the equi-key columns of a row into dst. A NULL in any
// key column reports ok=false: NULL never equi-matches anything. The
// Compare-consistent encoding (sqltypes.AppendCompareKey, shared with the
// secondary indexes) matches the = operator exactly, keeping the hash and
// index paths bit-identical to the nested-loop path.
func joinKey(dst []byte, row sqltypes.Row, idxs []int) ([]byte, bool) {
	return row.AppendCompareKeyCols(dst, idxs)
}
