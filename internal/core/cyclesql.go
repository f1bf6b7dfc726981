// Package core implements CycleSQL itself (paper Fig 3): a plug-and-play
// iterative feedback loop around any end-to-end NL2SQL model. For each
// candidate translation, the loop executes the SQL, tracks the provenance
// of a sampled result tuple, enriches it with operation-level semantics,
// generates a data-grounded NL explanation, and asks the NLI verifier
// whether the explanation entails the original question. The first
// candidate whose explanation validates becomes the translation; if none
// validates, the model's top-1 candidate is returned (paper §V-A1,
// inference settings).
//
// Concurrency: a Pipeline is safe for concurrent Translate calls, and the
// Parallelism knob additionally verifies the beam candidates of one call
// concurrently (see Pipeline.Parallelism). Candidates are independent
// until one validates, so speculative parallel verification commits
// results in beam order and returns a Result identical to the sequential
// loop — Iterations still counts candidates in beam order (paper Fig 8a).
// The stock Feedback and Verifier implementations are safe for concurrent
// use; custom ones must be too before raising Parallelism above 1.
//
// Resilience: a Pipeline optionally carries a resilience.Policy that
// wraps every stage of the loop — translate, execute, explain, verify —
// with retry/backoff for transient infrastructure faults and a per-stage
// circuit breaker (see internal/resilience). Panics inside a candidate's
// chain are recovered into typed StageErrors on both the sequential and
// parallel paths, so a crashing model call fails one candidate instead of
// the process. When the verify breaker is open the loop degrades
// gracefully: it stops burning candidates against a dead verifier and
// returns the best-scored unverified candidate with Result.Degraded set.
// A nil policy reproduces the pre-resilience behavior exactly (single
// attempts, no breakers) at zero added allocation.
//
// Cancellation: Translate takes a context.Context that threads through
// every candidate's execute → explain chain down to the SQL executor's
// inner loops (sqleval.Executor.ExecContext), so cancelling it — the
// batch experiment driver's per-example timeout, or a caller shutting
// down — aborts the loop mid-query and Translate returns the context's
// error. Internally the parallel path derives a per-call context that it
// cancels as soon as a candidate validates, which aborts the in-flight
// speculative work of later candidates — SQL executions mid-query, and,
// through nli.VerifyContext, a context-aware verifier's simulated
// inference mid-wait — instead of letting them run to completion; their
// discarded outcomes never affect the Result, so the beam-order parity
// guarantee above is unchanged.
package core

import (
	"context"
	"fmt"
	"time"

	"cyclesql/internal/datasets"
	"cyclesql/internal/explain"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Feedback generates the self-provided feedback (the premise) for one
// candidate translation. The default is CycleSQL's data-grounded
// explanation; the SQL2NL ablation (paper Fig 9) plugs in a query-surface
// back-translation instead. Premise must honor ctx: the loop cancels it
// to abort speculative feedback generation for candidates that can no
// longer win.
type Feedback interface {
	Name() string
	Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error)
}

// DataGrounded is CycleSQL's own feedback: provenance-based explanations.
type DataGrounded struct {
	// Polish optionally refines explanation fluency; verification uses the
	// raw mechanical text either way (the paper polishes only for users).
	Polish explain.Polisher
	// shared, when non-nil, keeps one explainer per database alive across
	// candidates — and across Translate calls that interleave databases,
	// as the experiment drivers do — so provenance queries reuse compiled
	// statements. The zero value stays stateless (a fresh explainer per
	// call).
	shared *explainerCache
}

// explainerCache holds the per-database explainers DataGrounded reuses,
// bounded because test-suite distillation can sweep many short-lived
// database clones through one feedback.
type explainerCache = boundedCache[*storage.Database, *explain.Explainer]

// maxCachedPerDB bounds the pipeline's per-database executor and explainer
// caches.
const maxCachedPerDB = 8

// NewDataGrounded returns a DataGrounded feedback that reuses one explainer
// (and its compiled provenance statements) per database across candidates.
func NewDataGrounded() DataGrounded {
	return DataGrounded{shared: &explainerCache{limit: maxCachedPerDB}}
}

// Name implements Feedback.
func (DataGrounded) Name() string { return "cyclesql" }

func (d DataGrounded) explainer(db *storage.Database) *explain.Explainer {
	build := func() *explain.Explainer {
		e := explain.New(db)
		// Polish is fixed at construction: reassigning it on every call
		// would be a write-on-read of the shared cached explainer, racing
		// as soon as two goroutines share the feedback. Set d.Polish
		// before the first Premise call; later changes only affect
		// explainers built for databases not yet cached.
		e.Polish = d.Polish
		return e
	}
	if d.shared == nil {
		return build()
	}
	return d.shared.getOrCreate(db, build)
}

// Premise implements Feedback. It is safe for concurrent use: the cached
// explainers are concurrency-safe and the cache hands concurrent callers
// one shared explainer per database.
func (d DataGrounded) Premise(ctx context.Context, db *storage.Database, stmt *sqlast.SelectStmt, result *sqltypes.Relation) (nli.Premise, error) {
	e := d.explainer(db)
	// The paper explains one representative result tuple; the first row is
	// the deterministic choice (training randomizes, inference does not).
	exp, err := e.ExplainContext(ctx, stmt, result, 0)
	if err != nil {
		return nli.Premise{}, err
	}
	return nli.Premise{
		Explanation: exp.Text,
		SQL:         nli.SQLOneLine(stmt.SQL()),
		Result:      resultSnippet(result),
	}, nil
}

// Result is the outcome of one CycleSQL translation.
type Result struct {
	Final      *sqlast.SelectStmt
	FinalSQL   string
	Verified   bool
	Iterations int // candidates examined (paper Fig 8a)
	Candidates []nl2sql.Candidate
	// Premises holds the feedback generated per examined candidate, in
	// order; Premises[i] corresponds to Candidates[i].
	Premises []nli.Premise
	// Errors records, per examined candidate, why no verdict could be
	// reached (the zero StageError when the chain completed): the failing
	// stage, the final attempt's error, and how many attempts the retry
	// policy consumed — only the final attempt is kept, so a high-fault
	// chaos sweep cannot grow the Result without bound. Errors[i]
	// corresponds to Candidates[i]. A premise-less candidate can still
	// become Final through the top-1 fallback, so drivers use this to
	// distinguish "failed to execute" from "examined but not verified".
	Errors []resilience.StageError
	// Retries counts the transient re-attempts the resilience policy
	// consumed across the translate stage and the examined candidates —
	// the faults that were retried away and so appear nowhere in Errors.
	// It is deterministic for a deterministic fault source, so parity
	// suites can compare it across parallelism levels.
	Retries int
	// Degraded marks a translation that could not be verified because the
	// verify-stage circuit breaker was open: the loop stopped burning
	// candidates against a dead verifier and fell back to the best-scored
	// unverified candidate. Verified is always false when Degraded is set.
	Degraded bool
	// Overhead is the wall-clock cost of the feedback loop itself
	// (execution + explanation + verification), excluding model inference.
	Overhead time.Duration
}

// Pipeline wires a translation model, a feedback generator and a verifier
// into the CycleSQL loop.
type Pipeline struct {
	Model     nl2sql.Model
	Verifier  nli.Verifier
	Feedback  Feedback
	BeamSize  int
	Benchmark string

	// Parallelism bounds how many beam candidates are verified
	// concurrently within one Translate call. 0 or 1 reproduces the
	// paper's sequential loop bit for bit; higher values execute, explain
	// and verify candidates speculatively on a worker pool while results
	// commit in beam order, so Final, Verified, Iterations, Premises and
	// Errors are identical to the sequential loop either way. Candidates
	// after the first (beam-order) validated one are not started; work
	// already in flight is left to finish and discarded. With Parallelism
	// > 1 the Feedback and Verifier must be safe for concurrent use (the
	// implementations in this repository are).
	Parallelism int

	// Resilience, when non-nil, wraps every loop stage with the policy's
	// retry/backoff and per-stage circuit breakers, and recovers stage
	// panics into StageErrors (see the package comment). Policies are
	// meant to be shared: every pipeline of a sweep holding the same
	// *Policy shares its breakers and reliability counters. A nil policy
	// means single attempts and no breakers — the pre-resilience loop.
	Resilience *resilience.Policy

	// execs, when non-nil, keeps one executor per database alive across
	// Translate calls. Beam candidates are fresh ASTs per call, but their
	// SQL text recurs across beams, and the executor's plan cache is keyed
	// by canonical SQL — so a persistent executor skips recompiling them
	// even when the caller interleaves examples from different databases.
	// The zero value stays stateless (a fresh executor per Translate).
	execs *executorCache
}

// executorCache holds the per-database executors the pipeline reuses.
type executorCache = boundedCache[*storage.Database, *sqleval.Executor]

func (p *Pipeline) executor(db *storage.Database) *sqleval.Executor {
	if p.execs == nil {
		return sqleval.New(db)
	}
	return p.execs.getOrCreate(db, func() *sqleval.Executor { return sqleval.New(db) })
}

// Translate runs the feedback loop for one example. Cancelling ctx aborts
// the loop — including any SQL execution in flight, which the executor
// interrupts mid-query — and Translate returns the context's error; a
// Result is never returned alongside one, so callers cannot mistake a
// half-examined beam for a real outcome.
func (p *Pipeline) Translate(ctx context.Context, ex datasets.Example, db *storage.Database) (*Result, error) {
	if p.Model == nil || p.Verifier == nil {
		return nil, fmt.Errorf("core: pipeline needs a model and a verifier")
	}
	if ctx == nil {
		//vetcycle:allow ctxflow -- nil-ctx guard for legacy callers; nothing upstream to thread
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fb := p.Feedback
	if fb == nil {
		fb = DataGrounded{}
	}
	k := p.BeamSize
	if k <= 0 {
		k = 8
	}
	candidates, translateRetries, err := p.beam(ctx, ex, db, k)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: model %s produced no candidates", p.Model.Name())
	}
	res := &Result{Candidates: candidates, Retries: translateRetries}
	start := time.Now()
	defer func() { res.Overhead = time.Since(start) }()
	// One executor serves every candidate — and, when the pipeline came
	// from New, persists across Translate calls so textually
	// recurring candidates reuse compiled plans (the cache is keyed by
	// canonical SQL, not AST identity). The executor is safe for
	// concurrent Exec, so the parallel path shares it across workers.
	executor := p.executor(db)
	if p.Parallelism > 1 && len(candidates) > 1 {
		p.runParallel(ctx, res, ex, db, fb, executor, candidates)
	} else {
		p.runSequential(ctx, res, ex, db, fb, executor, candidates)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !res.Verified {
		// No candidate validated — or the verify breaker forced graceful
		// degradation: the best-scored (top-1) candidate is the outcome.
		res.Final = candidates[0].Stmt
		res.FinalSQL = candidates[0].SQL
	}
	if res.Degraded {
		p.Resilience.Collect().AddDegraded()
	}
	return res, nil
}

// beam produces the candidate list, running the model's inference as the
// translate stage of the resilience policy (when one is configured):
// transient beam faults are retried within ctx's budget, and a panicking
// model fails the translation instead of the process. Without a policy
// the call is direct — plus cancellation awareness via
// nl2sql.TranslateContext — at no added allocation.
func (p *Pipeline) beam(ctx context.Context, ex datasets.Example, db *storage.Database, k int) ([]nl2sql.Candidate, int, error) {
	if p.Resilience == nil {
		cands, err := nl2sql.TranslateContext(ctx, p.Model, p.Benchmark, ex, db, k)
		return cands, 0, err
	}
	var cands []nl2sql.Candidate
	se, attempts, _ := p.stage(ctx, resilience.StageTranslate, p.Benchmark+"\x00"+ex.ID, func(ctx context.Context) error {
		var err error
		cands, err = nl2sql.TranslateContext(ctx, p.Model, p.Benchmark, ex, db, k)
		return err
	})
	retries := 0
	if attempts > 1 {
		retries = attempts - 1
	}
	if !se.IsZero() {
		if err := ctx.Err(); err != nil {
			return nil, retries, err
		}
		return nil, retries, fmt.Errorf("core: %w", error(se))
	}
	return cands, retries, nil
}

// runSequential is the paper's loop: examine candidates one at a time in
// beam order, stopping at the first validated one — or at cancellation,
// which Translate converts into an error return, or at verify-breaker
// degradation, which stops the loop on the spot (every later candidate
// would hit the same open circuit).
func (p *Pipeline) runSequential(ctx context.Context, res *Result, ex datasets.Example, db *storage.Database, fb Feedback, executor *sqleval.Executor, candidates []nl2sql.Candidate) {
	for i, cand := range candidates {
		if ctx.Err() != nil {
			return
		}
		o := p.examine(ctx, ex.Question, db, fb, executor, cand)
		res.Iterations = i + 1
		res.Premises = append(res.Premises, o.premise)
		res.Errors = append(res.Errors, o.err)
		res.Retries += o.retries
		if o.degraded {
			res.Degraded = true
			return
		}
		if o.verified {
			res.Final = cand.Stmt
			res.FinalSQL = cand.SQL
			res.Verified = true
			return
		}
	}
}

// candOutcome is the result of examining one candidate: its feedback
// premise (or the stage error that prevented one), the verifier's
// verdict, the transient re-attempts consumed along the way, and whether
// an open verify breaker forced degradation.
type candOutcome struct {
	premise  nli.Premise
	err      resilience.StageError
	verified bool
	retries  int
	degraded bool
}

// examine runs the execute → explain → verify chain for one candidate.
// Both the sequential loop and the parallel workers go through it, so the
// two paths produce identical premises, errors and verdicts by
// construction. A cancelled ctx surfaces as an error outcome tagged with
// the stage that observed it; callers that care (the parallel committer
// discarding in-flight losers, Translate's error return) check the
// context itself rather than the record. The verdict runs through
// nli.VerifyContext, so a verifier with real inference waits (an
// nli.ContextVerifier, e.g. nli.Latency) abandons them the moment the
// candidate can no longer win. A panic anywhere in the chain — a buggy or
// fault-injected model call — is recovered into the running stage's
// StageError on both paths, so one crashing candidate cannot take down
// the process (or the parallel pool). With a Resilience policy the chain
// additionally retries transient faults and consults the per-stage
// breakers (examineResilient).
func (p *Pipeline) examine(ctx context.Context, question string, db *storage.Database, fb Feedback, executor *sqleval.Executor, cand nl2sql.Candidate) (out candOutcome) {
	if p.Resilience != nil {
		return p.examineResilient(ctx, question, db, fb, executor, cand)
	}
	// The policy-free fast path: single attempts, no breakers, and — by
	// construction — zero allocation beyond the pre-resilience loop. The
	// stage marker makes the recover below attribute a panic correctly.
	stage := resilience.StageExecute
	out.premise = nli.Premise{SQL: cand.SQL}
	defer func() {
		if v := recover(); v != nil {
			perr := resilience.Recovered(v)
			out.err = resilience.StageError{Stage: stage, Attempt: 1, Err: perr.Error(), Transient: resilience.IsTransient(perr)}
			out.verified = false
		}
	}()
	rel, err := executor.ExecContext(ctx, cand.Stmt)
	if err != nil {
		// Invalid SQL can never validate; record an empty premise with the
		// failure and move on.
		out.err = resilience.StageError{Stage: stage, Attempt: 1, Err: err.Error()}
		return out
	}
	stage = resilience.StageExplain
	premise, err := fb.Premise(ctx, db, cand.Stmt, rel)
	if err != nil {
		out.err = resilience.StageError{Stage: stage, Attempt: 1, Err: err.Error()}
		return out
	}
	out.premise = premise
	stage = resilience.StageVerify
	verified, err := nli.VerifyContext(ctx, p.Verifier, question, premise)
	if err != nil {
		out.err = resilience.StageError{Stage: stage, Attempt: 1, Err: err.Error()}
		return out
	}
	out.verified = verified
	return out
}

// Baseline returns the model's unassisted top-1 translation, the "Base"
// rows of the paper's tables.
func (p *Pipeline) Baseline(ex datasets.Example, db *storage.Database) (*sqlast.SelectStmt, error) {
	//vetcycle:allow ctxflow -- documented one-shot wrapper over BaselineContext
	return p.BaselineContext(context.Background(), ex, db)
}

// BaselineContext is Baseline under a context: cancellable for a
// ContextModel, and run as the translate stage of the resilience policy
// when one is configured — so a chaos sweep's baseline rows heal from
// transient beam faults exactly as the loop's own beam does.
func (p *Pipeline) BaselineContext(ctx context.Context, ex datasets.Example, db *storage.Database) (*sqlast.SelectStmt, error) {
	candidates, _, err := p.beam(ctx, ex, db, 1)
	if err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: model %s produced no candidates", p.Model.Name())
	}
	return candidates[0].Stmt, nil
}

// resultSnippet renders a compact textual form of a result relation for
// the premise: row count plus up to the first two rows.
func resultSnippet(rel *sqltypes.Relation) string {
	if rel == nil {
		return "no result"
	}
	out := fmt.Sprintf("%d rows", rel.NumRows())
	limit := rel.NumRows()
	if limit > 2 {
		limit = 2
	}
	for r := 0; r < limit; r++ {
		out += " ;"
		for c, v := range rel.Rows[r] {
			if c >= 4 {
				break
			}
			out += " " + v.String()
		}
	}
	return out
}
