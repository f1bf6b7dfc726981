package main

import (
	"context"
	"fmt"
	"time"
)

// runDevExhaust is the closed loop of one client calling Translate
// directly for cfg.seconds, each answer checked against the digest.
func runDevExhaust(e *env, rep *report) error {
	ctx := context.Background()
	qs := e.questions()
	lat := make([]float64, 0, e.cfg.seconds*2000)
	w := openWindow()
	heap := sampleHeap()
	start := time.Now()
	deadline := start.Add(time.Duration(e.cfg.seconds) * time.Second)
	// Whole passes ask every question equally often, so the p99 falls on
	// the same question's times whatever the seed. A slow host still
	// makes one p99 window.
	for sent := 0; time.Now().Before(deadline) || !qs.atPassStart() || sent < e.window(); sent++ {
		q := qs.next()
		ex := e.dev[q]
		t := time.Now()
		res, err := e.pipeline.Translate(ctx, ex, e.bench.DB(ex.DBName))
		d := time.Since(t)
		rep.attempted++
		if err != nil {
			rep.fail("translate %s: %v", ex.ID, err)
			continue
		}
		lat = append(lat, ms(d))
		if !e.digest[q].matches(res) {
			rep.fail("%s: output differs from the digest", ex.ID)
		}
	}
	elapsed := time.Since(start)
	delta := w.delta()
	v := rep.values
	v["heap_live_mb"] = heap.medianMiB()
	n := len(lat)
	if err := latencies(rep, lat, e.window()); err != nil {
		return err
	}
	v["throughput_tps"] = float64(n) / elapsed.Seconds()
	// One closed-loop client sustains exactly its completion rate.
	v["max_rate_rps"] = v["throughput_tps"]
	v["allocs_per_translate"] = float64(delta.mallocs) / float64(n)
	v["kb_per_translate"] = float64(delta.bytes) / 1024 / float64(n)
	v["ok_pct"] = okPct(rep)
	v["ex_pct"] = e.exPct(e.finals, e.bench.DB)
	rep.note("dev-exhaust: %d translations (%d passes) in %.3f s, 1 closed-loop client", n, n/len(e.dev), elapsed.Seconds())
	return nil
}

// latencies reports the median of lat (ms, in the order the requests
// were made) and its p99 as the median of window p99s, refusing a run
// too short for one window.
func latencies(rep *report, lat []float64, window int) error {
	p99, windows := windowP99(lat, window)
	if windows == 0 {
		return fmt.Errorf("%w: %d latency samples cannot support a p99 (windows of %d, each with %d beyond the p99)", errInvalid, len(lat), window, minBeyond)
	}
	p50, _ := percentile(lat, 0.5)
	rep.values["latency_p50_ms"] = p50
	rep.values["latency_p99_ms"] = p99
	rep.note("latency over %d samples: p50 %.4f ms, p99 %.4f ms (median of %d windows of %d, each with %d beyond its p99)",
		len(lat), p50, p99, windows, window, window/100)
	return nil
}

func okPct(rep *report) float64 {
	return 100 * float64(rep.attempted-rep.failed) / float64(rep.attempted)
}

// traceDevExhaust measures the closed loop's GC load for half the run,
// then replays the question stream stage by stage for the other half.
func traceDevExhaust(e *env, rep *report) error {
	ctx := context.Background()
	half := time.Duration(e.cfg.seconds) * time.Second / 2
	qs := e.questions()
	w := openWindow()
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		ex := e.dev[qs.next()]
		rep.attempted++
		if _, err := e.pipeline.Translate(ctx, ex, e.bench.DB(ex.DBName)); err != nil {
			rep.fail("translate %s: %v", ex.ID, err)
		}
	}
	gcStats(rep, w.delta())
	noServe(rep)
	l := &layerRun{r: newReplayer(e)}
	qs = e.questions()
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		ex := e.dev[qs.next()]
		if _, _, err := l.question(ctx, e.pipeline, ex, e.bench.DB(ex.DBName), rep); err != nil {
			return err
		}
	}
	return l.values(rep)
}

func gcStats(rep *report, d windowDelta) {
	rep.values["gc.cpu_frac"] = d.gcCPUFrac
	rep.values["gc.cycles"] = float64(d.gcCycles)
}

// noServe zeroes the serve and storage layers a direct workload never
// reaches.
func noServe(rep *report) {
	for _, name := range []string{"serve.snapshot_refresh_ratio", "serve.pipeline_miss_ratio", "serve.gen_lag_us",
		"storage.insert_us", "storage.inserts"} {
		rep.values[name] = 0
	}
}
