package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqlparse"
	"cyclesql/internal/storage"
)

const (
	// clients is the number of client goroutines, each with its own
	// connection: the 2 CPUs of the reference machine.
	clients = 2
	// latencyLimit is the p99 an open-loop step is held to; the run
	// notes whether the step met it.
	latencyLimit = 100 * time.Millisecond
	// lagLimit is the p99 generator lag above which an open-loop step is
	// invalid: the offered load was not the scheduled one. Lateness below
	// it is host and garbage-collector stalls the server suffers too, and
	// latency counts it, since requests are timed from their due time.
	lagLimit = 50 * time.Millisecond
	// insertRate is serve-write's inserts per second. A 30 s run adds 25
	// to 32 rows, about 3% of the written tenants' rows (rows are drawn
	// uniformly over the written tables' rows): at most 12 of a tenant's
	// 117 to 137, or 4 of flight_2's 20. Each run states the growth per
	// tenant. Faster writing drifts the loop's answers as the tables grow.
	insertRate = 1.0
	// closedShare is the share of a serve run spent on the closed loop
	// that gives latency; the overload step takes most of the rest.
	closedShare = 0.8
	// referenceRate is the open-loop arrival rate (requests/s) the traced
	// run offers, well below the knee of about 700 to 1000 requests/s on
	// 2 vCPUs.
	referenceRate = 250
	// overloadRate is the arrival rate of the step that gives
	// max_rate_rps. It is far above any rate the server can serve, so both
	// clients stay busy and the step's completion rate is the server's
	// capacity. A highest rate meeting latencyLimit on a ladder of fixed
	// rates was not steady: p99 climbs slowly through the knee (about 45
	// ms at 600/s, 100 ms at 700 to 900/s, 280 ms at 1000/s), so the rate
	// that met it moved by rungs with the host's speed.
	overloadRate = 20000
	// overloadWindows is the overload step's length in p99 windows, and
	// the number of windows whose completion rates give its median.
	overloadWindows = 5
)

// arrival is one scheduled request: when it is due, relative to the
// start of its step, and which dev question it asks.
type arrival struct {
	due time.Duration
	q   int
}

// window is the p99 window (see windowP99): the fewest whole passes
// over the questions that hold 100*minBeyond requests. Whole passes ask
// every question equally often, so a percentile falls on the same
// question's times whatever the seed.
func (e *env) window() int {
	return (100*minBeyond + len(e.dev) - 1) / len(e.dev) * len(e.dev)
}

// schedule draws seeded Poisson arrivals at rate per second, windows
// whole p99 windows of them.
func (e *env) schedule(rng *rand.Rand, qs *questionStream, rate float64, windows int) []arrival {
	out := make([]arrival, windows*e.window())
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), q: qs.next()}
	}
	return out
}

// record is what happened to one arrival: its generator lag, and when
// it completed as an offset from step start.
type record struct {
	lag, done time.Duration
	err       error
}

// stepResult summarizes one open-loop step at one rate.
type stepResult struct {
	n        int
	span     time.Duration // when the last arrival was due
	lat      []float64     // ms from due to done, successful requests
	lagP99   time.Duration
	backlog  int     // requests not done when the last one was due
	perSec   float64 // completion rate, see completionRate
	failed   int
	firstErr error
	valid    bool
	p99      float64
	meets    bool
	inserts  int
	insFails int
}

// summarize decides validity and whether the step meets the latency
// limit. A step whose generator ran late is invalid: its latencies
// describe a load other than the scheduled one, so it never counts as
// meeting the limit, and the run that offered it is invalid.
func summarize(sched []arrival, recs []record, rate float64, window int) stepResult {
	s := stepResult{n: len(sched), span: sched[len(sched)-1].due}
	lags := make([]float64, len(sched))
	var done []time.Duration
	for i, a := range sched {
		r := recs[i]
		lags[i] = float64(r.lag)
		if r.done > s.span {
			s.backlog++
		}
		if r.err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = r.err
			}
			continue
		}
		s.lat = append(s.lat, ms(r.done-a.due))
		done = append(done, r.done)
	}
	s.perSec = completionRate(done, window)
	lag, lagBeyond := percentile(lags, 0.99)
	s.lagP99 = time.Duration(lag)
	s.valid = lagBeyond >= minBeyond && s.lagP99 <= lagLimit
	p99, windows := windowP99(s.lat, window)
	s.p99 = p99
	growing := float64(s.backlog) > rate*latencyLimit.Seconds()
	s.meets = s.valid && windows > 0 && s.failed == 0 && !growing && p99 <= ms(latencyLimit)
	return s
}

// completionRate is the median, over consecutive windows of window
// successful responses in the order they completed, of responses per
// second. A host stall slows the window it falls in, not the median.
func completionRate(done []time.Duration, window int) float64 {
	slices.Sort(done)
	var rates []float64
	var prev time.Duration
	for end := window; end <= len(done); end += window {
		rates = append(rates, float64(window)/(done[end-1]-prev).Seconds())
		prev = done[end-1]
	}
	v, _ := percentile(rates, 0.5)
	return v
}

// step offers sched to the server open-loop. Each client goroutine
// claims the next arrival in order, waits for its due time and sends
// it; the request is timed from its due time, so while both clients are
// busy the arrivals queue and their wait counts. An arrival's generator
// lag is how late it was sent after the later of its due time and the
// moment a client was free to send it: the load generator's own
// lateness, not the system's. A third goroutine inserts meanwhile.
func (e *env) step(sched []arrival, rate float64) stepResult {
	recs := make([]record, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop, counts := e.writeWhile(start)
	for _, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(sched); i = int(next.Add(1) - 1) {
				a := sched[i]
				free := time.Since(start)
				if wait := a.due - free; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				err := e.postChecked(c, a.q)
				recs[i] = record{lag: sent - max(a.due, free), done: time.Since(start), err: err}
			}
		}()
	}
	wg.Wait()
	close(stop)
	s := summarize(sched, recs, rate, e.window())
	w := <-counts
	s.inserts, s.insFails = w.n, w.failed
	return s
}

// writeCount is how many inserts a writer made and how many failed.
type writeCount struct{ n, failed int }

// writeWhile starts a goroutine making the next inserts of the seeded
// stream, evenly spaced at insertRate from start, until stop is closed;
// it then sends its counts on counts. The spacing is fixed so that every
// seed writes about the same number of rows.
func (e *env) writeWhile(start time.Time) (stop chan<- struct{}, counts <-chan writeCount) {
	stopc, out := make(chan struct{}), make(chan writeCount, 1)
	go func() {
		var w writeCount
		t := time.NewTimer(0)
		defer t.Stop()
		for ; ; w.n++ {
			t.Reset(time.Until(start.Add(time.Duration(float64(w.n+1) / insertRate * float64(time.Second)))))
			select {
			case <-stopc:
				out <- w
				return
			case <-t.C:
			}
			if _, err := e.inserts.insert(); err != nil {
				w.failed++
			}
		}
	}()
	return stopc, out
}

// postChecked sends dev question q and checks the response: its
// snapshot must be no older than the tenant's epoch read just before
// sending.
func (e *env) postChecked(c *http.Client, q int) error {
	epoch := e.bench.DB(e.dev[q].DBName).Epoch()
	r, err := e.post(c, q)
	if err == nil && r.SnapshotEpoch < epoch {
		err = fmt.Errorf("%s: served snapshot epoch %d, tenant was at %d before sending", e.dev[q].ID, r.SnapshotEpoch, epoch)
	}
	return err
}

// count adds a step's operations to the run's and notes the step.
func count(rep *report, rate float64, s stepResult) {
	rep.note("rate %5.0f/s for %.2f s: %d sent, %d failed, %d inserts, %.1f done/s, p99 %.3f ms, generator lag p99 %.3f ms, backlog %d, valid %v, meets %v",
		rate, s.span.Seconds(), s.n, s.failed, s.inserts, s.perSec, s.p99, ms(s.lagP99), s.backlog, s.valid, s.meets)
	rep.attempted += int64(s.n + s.inserts)
	rep.failed += int64(s.failed + s.insFails)
	if s.firstErr != nil {
		rep.note("FAIL %v", s.firstErr)
	}
	if s.insFails > 0 {
		rep.note("FAIL %d inserts failed", s.insFails)
	}
}

// runServe measures latency, throughput, allocations and the live heap
// on a closed loop of one client, then the server's capacity,
// max_rate_rps, in an open-loop step at overloadRate. The inserts run
// throughout.
//
// Latency is taken closed-loop because the open-loop tail is not steady
// on a shared 2-vCPU host: over sets of five runs at 100 to 400
// requests/s the p99 spread 15-40% and the p50 9-27% between runs,
// beyond the benchmark's bounds, while one client's tail, which no
// stall can queue other requests behind, stays within them.
func runServe(e *env, rep *report) error {
	qs := e.questions()
	v := rep.values

	w := openWindow()
	heap := sampleHeap()
	lat, elapsed := e.closedLoop(qs, time.Duration(float64(e.cfg.seconds)*closedShare*float64(time.Second)), rep)
	v["heap_live_mb"] = heap.medianMiB()
	delta := w.delta()
	if err := latencies(rep, lat, e.window()); err != nil {
		return err
	}
	v["throughput_tps"] = float64(len(lat)) / elapsed.Seconds()
	v["allocs_per_translate"] = float64(delta.mallocs) / float64(len(lat))
	v["kb_per_translate"] = float64(delta.bytes) / 1024 / float64(len(lat))

	s := e.step(e.schedule(e.rng(streamArrivals), qs, overloadRate, overloadWindows), overloadRate)
	count(rep, overloadRate, s)
	if !s.valid {
		return s.invalid(overloadRate)
	}
	v["max_rate_rps"] = s.perSec
	rep.note("rows inserted per tenant: %s", e.inserts.growth())
	v["ex_pct"] = e.exAfterWrites(rep)
	v["ok_pct"] = okPct(rep)
	return nil
}

// closedLoop asks the server the question stream from one client, each
// request sent when the previous one answered, for dur rounded up to a
// whole pass and to at least one p99 window, with inserts alongside.
// It returns the successful requests' latencies (ms) in order, and the
// time taken.
func (e *env) closedLoop(qs *questionStream, dur time.Duration, rep *report) ([]float64, time.Duration) {
	lat := make([]float64, 0, int(dur.Seconds()*2000))
	start := time.Now()
	stop, counts := e.writeWhile(start)
	for sent := 0; time.Since(start) < dur || !qs.atPassStart() || sent < e.window(); sent++ {
		q := qs.next()
		t := time.Now()
		err := e.postChecked(e.clients[0], q)
		d := time.Since(t)
		rep.attempted++
		if err != nil {
			rep.fail("closed loop: %v", err)
			continue
		}
		lat = append(lat, ms(d))
	}
	elapsed := time.Since(start)
	close(stop)
	w := <-counts
	rep.attempted += int64(w.n)
	for range w.failed {
		rep.fail("closed loop: an insert failed")
	}
	rep.note("closed loop: %d requests and %d inserts in %.3f s, 1 client", len(lat), w.n, elapsed.Seconds())
	return lat, elapsed
}

// invalid reports an open-loop step whose generator ran late: it
// offered another load than the scheduled one, so the run is invalid,
// not slow.
func (s stepResult) invalid(rate float64) error {
	return fmt.Errorf("%w: at %v requests/s the generator lag p99 is %v over %d arrivals (limit %v, and at least %d beyond the p99)",
		errInvalid, rate, s.lagP99, s.n, lagLimit, minBeyond)
}

// exAfterWrites asks every question once more after the writes and
// scores the answers on the written tables.
func (e *env) exAfterWrites(rep *report) float64 {
	finals := make([]*sqlast.SelectStmt, len(e.dev))
	for i := range e.dev {
		rep.attempted++
		r, err := e.post(e.clients[0], i)
		if err != nil {
			rep.fail("after writes %s: %v", e.dev[i].ID, err)
			continue
		}
		finals[i], _ = sqlparse.Parse(r.SQL)
	}
	views := map[string]*storage.Database{}
	return e.exPct(finals, func(name string) *storage.Database {
		if views[name] == nil {
			views[name] = e.bench.DB(name).Snapshot().DB()
		}
		return views[name]
	})
}

// traceServe measures the open loop at the reference rate for half the
// run, with the server's counters and the GC around it, then replays the
// question stream stage by stage for the other half, sending each
// question to the server too.
func traceServe(e *env, rep *report) error {
	ctx := context.Background()
	half := time.Duration(e.cfg.seconds) * time.Second / 2
	qs := e.questions()
	m0, err := e.serverMetrics()
	if err != nil {
		return err
	}
	w := openWindow()
	windows := max(1, int(referenceRate*half.Seconds())/e.window())
	s := e.step(e.schedule(e.rng(streamArrivals), qs, referenceRate, windows), referenceRate)
	gcStats(rep, w.delta())
	m1, err := e.serverMetrics()
	if err != nil {
		return err
	}
	count(rep, referenceRate, s)
	if !s.valid {
		return s.invalid(referenceRate)
	}
	v := rep.values
	v["serve.gen_lag_us"] = float64(s.lagP99) / 1e3
	v["serve.snapshot_refresh_ratio"] = mean(float64(m1.Snapshots.Refreshes-m0.Snapshots.Refreshes), int(m1.Snapshots.Pins-m0.Snapshots.Pins))
	misses := m1.Pipelines.Misses - m0.Pipelines.Misses
	v["serve.pipeline_miss_ratio"] = mean(float64(misses), int(misses+m1.Pipelines.Hits-m0.Pipelines.Hits))

	// The replay runs on views pinned here and re-pinned after each of
	// its own inserts, so Translate and the replay read the same rows as
	// the server.
	views := map[string]*storage.Database{}
	view := func(name string) *storage.Database {
		if views[name] == nil {
			views[name] = e.bench.DB(name).Snapshot().DB()
		}
		return views[name]
	}
	perInsert := int(referenceRate / insertRate)
	l := &layerRun{r: newReplayer(e)}
	for i, deadline := 1, time.Now().Add(half); time.Now().Before(deadline); i++ {
		if i%perInsert == 0 {
			rep.attempted++
			t, err := e.inserts.insert()
			if err != nil {
				rep.fail("insert into %s.%s: %v", t.name, t.table, err)
			}
			views[t.name] = t.db.Snapshot().DB()
		}
		q := qs.next()
		ex := e.dev[q]
		res, direct, err := l.question(ctx, e.pipeline, ex, view(ex.DBName), rep)
		if err != nil {
			return err
		}
		t := time.Now()
		r, err := e.post(e.clients[0], q)
		d := time.Since(t)
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("request %s: %v", ex.ID, err)
		case res != nil && r.outcome() != outcomeOf(res):
			rep.fail("request %s: served %+v, direct Translate %+v", ex.ID, r.outcome(), outcomeOf(res))
		case res != nil:
			l.requestNS += int64(d)
			l.serveSelfNS += int64(d - direct)
			l.requests++
		}
	}
	rep.note("rows inserted per tenant: %s", e.inserts.growth())
	var sum time.Duration
	for _, d := range e.inserts.took {
		sum += d
	}
	v["storage.inserts"] = float64(len(e.inserts.took))
	v["storage.insert_us"] = mean(float64(sum)/1e3, len(e.inserts.took))
	return l.values(rep)
}
