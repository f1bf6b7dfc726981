package main

import (
	"context"
	"fmt"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/explain"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/provenance"
	"cyclesql/internal/resilience"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/sqlnorm"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// stage is one call into a module's public entry point that the traced
// replay times. The probe stages (canonical, cachekey, fresh, rerun)
// are calls Translate makes in another form, or inside another call;
// they run in a pass of their own (see probe).
type stage int

const (
	stBeam      stage = iota // nl2sql.TranslateContext
	stCanonical              // sqlnorm.Canonical (probe)
	stCacheKey               // sqlnorm.CacheKey (probe)
	stExec                   // sqleval.Executor.ExecContext, warm executor
	stFresh                  // sqleval.Executor.ExecContext, fresh executor (probe)
	stRerun                  // the same statement again on that executor (probe)
	stTrack                  // provenance.Tracker.TrackContext
	stRender                 // explain.Explainer.FromProvenance
	stVerify                 // nli.VerifyContext
	numStages
)

// meter measures one stage call: the timing pass records wall time, the
// allocation pass heap allocations. The two run as separate passes so
// that stopping the world to count allocations never lands in a time.
type meter interface {
	measure(s stage, fn func())
}

type timeMeter struct {
	ns [numStages]int64
	n  [numStages]int
}

func (m *timeMeter) measure(s stage, fn func()) {
	t := time.Now()
	fn()
	m.ns[s] += int64(time.Since(t))
	m.n[s]++
}

func (m *timeMeter) meanUS(s stage) float64 { return mean(float64(m.ns[s])/1e3, m.n[s]) }

type allocMeter struct {
	allocs [numStages]uint64
	n      [numStages]int
}

func (m *allocMeter) measure(s stage, fn func()) {
	m.allocs[s] += allocsOf(fn)
	m.n[s]++
}

func (m *allocMeter) mean(s stage) float64 { return mean(float64(m.allocs[s]), m.n[s]) }

// replayer re-runs the loop of core.Pipeline.Translate one module call
// at a time, with the same warm per-database state the pipeline keeps:
// one executor and one explainer (with its tracker) per database.
type replayer struct {
	model     nl2sql.Model
	verifier  nli.Verifier
	benchName string
	execs     map[*storage.Database]*sqleval.Executor
	explain   map[*storage.Database]*explain.Explainer
	track     map[*storage.Database]*provenance.Tracker

	execs0, execFails, verifies, accepts int
}

func newReplayer(e *env) *replayer {
	return &replayer{
		model: nl2sql.MustByName(modelName), verifier: e.verifier, benchName: e.bench.Name,
		execs:   map[*storage.Database]*sqleval.Executor{},
		explain: map[*storage.Database]*explain.Explainer{},
		track:   map[*storage.Database]*provenance.Tracker{},
	}
}

// maxWarmDBs mirrors the pipeline's bounded per-database caches.
const maxWarmDBs = 8

func (r *replayer) warm(db *storage.Database) (*sqleval.Executor, *provenance.Tracker, *explain.Explainer) {
	if _, ok := r.execs[db]; !ok {
		for old := range r.execs {
			if len(r.execs) < maxWarmDBs {
				break
			}
			delete(r.execs, old)
			delete(r.track, old)
			delete(r.explain, old)
		}
		r.execs[db] = sqleval.New(db)
		r.track[db] = provenance.NewTracker(db)
		r.explain[db] = explain.New(db)
	}
	return r.execs[db], r.track[db], r.explain[db]
}

// replayed is one question's replay: the beam's candidates, and what
// Translate must also answer.
type replayed struct {
	cands      []nl2sql.Candidate
	final      string
	verified   bool
	iterations int
	premises   []nli.Premise
	errs       []string // "stage: message", or "" where the chain completed
}

// replay runs the loop for ex on db, measuring each stage with m. It
// counts executions, failed executions, verifier calls and accepts when
// count is set (the timing pass), so the two passes do not count twice.
func (r *replayer) replay(ctx context.Context, m meter, ex datasets.Example, db *storage.Database, count bool) (replayed, error) {
	var out replayed
	var cands []nl2sql.Candidate
	var err error
	m.measure(stBeam, func() { cands, err = nl2sql.TranslateContext(ctx, r.model, r.benchName, ex, db, beamSize) })
	if err != nil {
		return out, err
	}
	if len(cands) == 0 {
		return out, fmt.Errorf("model produced no candidates")
	}
	out.cands = cands
	executor, tracker, explainer := r.warm(db)
	for _, c := range cands {
		var rel *sqltypes.Relation
		var prov *provenance.Provenance
		var exp *explain.Explanation
		var verdict bool
		m.measure(stExec, func() { rel, err = executor.ExecContext(ctx, c.Stmt) })
		out.iterations++
		if count {
			r.execs0++
		}
		if err != nil {
			if count {
				r.execFails++
			}
			out.premises = append(out.premises, nli.Premise{SQL: c.SQL})
			out.errs = append(out.errs, string(resilience.StageExecute)+": "+err.Error())
			continue
		}
		m.measure(stTrack, func() { prov, err = tracker.TrackContext(ctx, c.Stmt, rel, 0) })
		if err == nil {
			m.measure(stRender, func() { exp, err = explainer.FromProvenance(prov) })
		}
		if err != nil {
			out.premises = append(out.premises, nli.Premise{SQL: c.SQL})
			out.errs = append(out.errs, string(resilience.StageExplain)+": "+err.Error())
			continue
		}
		premise := nli.Premise{Explanation: exp.Text, SQL: nli.SQLOneLine(c.Stmt.SQL()), Result: resultSnippet(rel)}
		m.measure(stVerify, func() { verdict, err = nli.VerifyContext(ctx, r.verifier, ex.Question, premise) })
		out.premises = append(out.premises, premise)
		if err != nil {
			out.errs = append(out.errs, string(resilience.StageVerify)+": "+err.Error())
			continue
		}
		out.errs = append(out.errs, "")
		if count {
			r.verifies++
			if verdict {
				r.accepts++
			}
		}
		if verdict {
			out.final, out.verified = c.SQL, true
			return out, nil
		}
	}
	out.final = cands[0].SQL
	return out, nil
}

// probe times, for each examined candidate, the calls Translate makes
// in another form: the canonical rendering the beam makes, the plan-cache
// key every execution looks up, and a fresh executor's first run
// (compile and execute) and second run (execute only) on warm data. It
// is a pass of its own so that the timing pass makes Translate's calls
// and no others, on caches only they warmed.
func (r *replayer) probe(ctx context.Context, m meter, cands []nl2sql.Candidate, db *storage.Database) {
	for _, c := range cands {
		m.measure(stCanonical, func() { _ = sqlnorm.Canonical(c.Stmt) })
		m.measure(stCacheKey, func() { _ = sqlnorm.CacheKey(c.Stmt) })
		fresh := sqleval.New(db)
		m.measure(stFresh, func() { _, _ = fresh.ExecContext(ctx, c.Stmt) })
		m.measure(stRerun, func() { _, _ = fresh.ExecContext(ctx, c.Stmt) })
	}
}

// resultSnippet renders a result the way core's data-grounded feedback
// puts it into the premise: the row count and up to two rows of up to
// four values. The parity check against Translate's premises keeps the
// two renderings equal.
func resultSnippet(rel *sqltypes.Relation) string {
	out := fmt.Sprintf("%d rows", rel.NumRows())
	for r := 0; r < min(rel.NumRows(), 2); r++ {
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

// parity checks that the replay reproduced Translate's answer, each
// candidate's premise and each candidate's stage error.
func parity(res *core.Result, rr replayed) error {
	if res.FinalSQL != rr.final || res.Verified != rr.verified || res.Iterations != rr.iterations {
		return fmt.Errorf("replay answered (%q, verified %v, %d examined), Translate (%q, verified %v, %d examined)",
			rr.final, rr.verified, rr.iterations, res.FinalSQL, res.Verified, res.Iterations)
	}
	for i := range res.Premises {
		if res.Premises[i] != rr.premises[i] {
			return fmt.Errorf("candidate %d: replay premise %+v, Translate %+v", i, rr.premises[i], res.Premises[i])
		}
		want := ""
		if !res.Errors[i].IsZero() {
			want = res.Errors[i].Error()
		}
		if want != rr.errs[i] {
			return fmt.Errorf("candidate %d: replay error %q, Translate %q", i, rr.errs[i], want)
		}
	}
	return nil
}

// layerRun accumulates the traced run's measurements across questions.
type layerRun struct {
	r      *replayer
	times  timeMeter
	allocs allocMeter
	// Direct Translate calls of the same questions, untraced.
	direct []float64 // ms
	// What tracing a question costs: the timing, probe and allocation passes.
	traced   []float64 // ms
	directNS int64
	stagedNS int64 // the Translate-path stages of the timing pass
	overhead int64 // Result.Overhead sum, ns
	iters    int
	// Serve workloads: request time and its excess over direct Translate.
	requestNS, serveSelfNS int64
	requests               int
}

// question times one direct Translate of ex on db, replays it (timing
// pass), checks replay parity, then runs the probe and allocation passes.
// Every other question replays before the direct call, so neither side
// always runs on caches the other warmed. It returns Translate's result, nil if
// it failed, and how long it took.
func (l *layerRun) question(ctx context.Context, p *core.Pipeline, ex datasets.Example, db *storage.Database, rep *report) (*core.Result, time.Duration, error) {
	var res *core.Result
	var direct time.Duration
	var rr replayed
	var wall, staged time.Duration
	var rerr error
	translate := func() {
		t := time.Now()
		var err error
		res, err = p.Translate(ctx, ex, db)
		direct = time.Since(t)
		rep.attempted++
		if err != nil {
			rep.fail("translate %s: %v", ex.ID, err)
			res = nil
		}
	}
	trace := func() {
		before := l.times.ns
		t := time.Now()
		rr, rerr = l.r.replay(ctx, &l.times, ex, db, true)
		wall = time.Since(t)
		for s := range numStages {
			staged += time.Duration(l.times.ns[s] - before[s])
		}
	}
	if len(l.direct)%2 == 0 {
		translate()
		trace()
	} else {
		trace()
		translate()
	}
	if rerr != nil {
		return res, direct, fmt.Errorf("replay %s: %w", ex.ID, rerr)
	}
	if res == nil {
		return nil, direct, nil
	}
	l.direct = append(l.direct, ms(direct))
	l.directNS += int64(direct)
	l.stagedNS += int64(staged)
	l.overhead += int64(res.Overhead)
	l.iters += res.Iterations
	if err := parity(res, rr); err != nil {
		rep.fail("replay parity %s: %v", ex.ID, err)
	}
	t := time.Now()
	l.r.probe(ctx, &l.times, rr.cands[:rr.iterations], db)
	if _, err := l.r.replay(ctx, &l.allocs, ex, db, false); err != nil {
		return res, direct, fmt.Errorf("allocation replay %s: %w", ex.ID, err)
	}
	l.traced = append(l.traced, ms(wall+time.Since(t)))
	return res, direct, nil
}

// values fills the per-layer metrics the replay measures.
func (l *layerRun) values(rep *report) error {
	n := len(l.direct)
	if n == 0 {
		return fmt.Errorf("%w: the traced run completed no question", errInvalid)
	}
	v := rep.values
	v["nl2sql.beam_us"] = l.times.meanUS(stBeam)
	v["nl2sql.beam_allocs"] = l.allocs.mean(stBeam)
	v["sqlnorm.canonical_us"] = l.times.meanUS(stCanonical)
	v["sqlnorm.cachekey_us"] = l.times.meanUS(stCacheKey)
	v["sqleval.exec_us"] = l.times.meanUS(stExec)
	v["sqleval.compile_us"] = l.times.meanUS(stFresh) - l.times.meanUS(stRerun)
	v["sqleval.exec_fail_ratio"] = mean(float64(l.r.execFails), l.r.execs0)
	v["provenance.track_us"] = l.times.meanUS(stTrack)
	v["provenance.track_allocs"] = l.allocs.mean(stTrack)
	v["explain.render_us"] = l.times.meanUS(stRender)
	v["explain.render_allocs"] = l.allocs.mean(stRender)
	v["nli.verify_us"] = l.times.meanUS(stVerify)
	v["nli.accept_ratio"] = mean(float64(l.r.accepts), l.r.verifies)
	v["core.overhead_us"] = mean(float64(l.overhead)/1e3, n)
	v["core.iterations"] = mean(float64(l.iters), n)
	v["core.self_us"] = mean(float64(l.directNS-l.stagedNS)/1e3, n)
	v["serve.request_us"] = mean(float64(l.requestNS)/1e3, l.requests)
	v["serve.self_us"] = mean(float64(l.serveSelfNS)/1e3, l.requests)
	// The overhead is the traced p50 less the untraced p50 of the same
	// questions, Translate called directly in this run.
	tracedP50, _ := percentile(l.traced, 0.5)
	directP50, _ := percentile(l.direct, 0.5)
	v["trace.overhead_ms"] = tracedP50 - directP50
	rep.note("traced run: %d questions, untraced p50 %.4f ms, traced p50 %.4f ms (timing, probe and allocation passes)", n, directP50, tracedP50)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
