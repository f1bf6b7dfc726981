package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cyclesql/internal/datasets"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s is not in BENCHMARK.json", name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// runResult runs the benchmark in this process and decodes its last line.
func runResult(t *testing.T, args ...string) resultJSON {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestPrintedMetricsMatchBenchmarkFile runs a short dev-exhaust, untraced
// and traced, and holds the printed names and units to BENCHMARK.json.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the loop")
	}
	b := readBenchmarkFile(t)
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": b.EndToEnd, "1": b.PerLayer} {
		res := runResult(t, "--workload", "dev-exhaust", "--seed", "3", "--seconds", "2",
			"--first", "16", "--setup-runs", "1", "--trace", trace)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: printed %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s printed as %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
			}
		}
	}
}

func TestNoPercentileWithFewerThanTenBeyond(t *testing.T) {
	for _, n := range []int{10, 999, 1000, 5000} {
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = float64(n - i)
		}
		rep := &report{values: map[string]float64{}}
		err := latencies(rep, lat, 1000)
		enough := n >= 1000
		if enough != (err == nil) {
			t.Errorf("%d samples: err %v", n, err)
		}
		if _, printed := rep.values["latency_p99_ms"]; printed != enough {
			t.Errorf("%d samples: p99 printed %v", n, printed)
		}
		if !enough && !errors.Is(err, errInvalid) {
			t.Errorf("%d samples: want an invalid run, got %v", n, err)
		}
		if _, beyond := percentile(lat, 0.99); enough != (beyond >= minBeyond) {
			t.Errorf("%d samples: %d beyond the p99", n, beyond)
		}
	}
	// A window too small to leave minBeyond samples beyond its p99 is
	// refused however many samples there are.
	if _, windows := windowP99(make([]float64, 5000), 999); windows != 0 {
		t.Errorf("windows of 999 samples gave %d p99s", windows)
	}
}

// TestLateGeneratorIsInvalid feeds an open-loop step whose requests were
// all fast but sent late: the step must be invalid, not slow.
func TestLateGeneratorIsInvalid(t *testing.T) {
	const n = 2000
	sched := make([]arrival, n)
	recs := make([]record, n)
	for i := range sched {
		sched[i].due = time.Duration(i) * time.Millisecond
		recs[i].done = sched[i].due + time.Millisecond
	}
	if s := summarize(sched, recs, 1000, 1000); !s.valid || !s.meets || s.perSec != 1000 {
		t.Fatalf("on-time step: valid %v, meets %v, %v done/s", s.valid, s.meets, s.perSec)
	}
	for i := range recs {
		if i%20 == 0 {
			recs[i].lag = lagLimit + time.Millisecond
		}
	}
	s := summarize(sched, recs, 1000, 1000)
	if s.valid || s.meets {
		t.Fatalf("late generator: valid %v, meets %v", s.valid, s.meets)
	}
	if err := s.invalid(1000); !errors.Is(err, errInvalid) {
		t.Fatalf("a late generator's step reports %v, want an invalid run", err)
	}
}

// TestSeededStreams checks that the seed fixes the question stream, the
// arrival schedule and the insert stream, and that another seed changes
// each of them.
func TestSeededStreams(t *testing.T) {
	bench := datasets.Spider()
	type streams struct {
		questions []int
		arrivals  []arrival
		inserts   []string
	}
	draw := func(seed uint64) streams {
		e := &env{cfg: config{seed: seed}, bench: bench, dev: bench.Dev}
		var s streams
		qs := e.questions()
		for range 2 * len(e.dev) {
			s.questions = append(s.questions, qs.next())
		}
		s.arrivals = e.schedule(e.rng(streamArrivals), e.questions(), referenceRate, 1)
		in := newInserter(e)
		for range 50 {
			tgt, row := in.draw()
			s.inserts = append(s.inserts, tgt.name+"."+tgt.table+" "+row.Key())
		}
		return s
	}
	a, b, c := draw(1), draw(1), draw(2)
	if !slices.Equal(a.questions, b.questions) || !slices.Equal(a.arrivals, b.arrivals) || !slices.Equal(a.inserts, b.inserts) {
		t.Error("the same seed gave different streams")
	}
	if slices.Equal(a.questions, c.questions) || slices.Equal(a.arrivals, c.arrivals) || slices.Equal(a.inserts, c.inserts) {
		t.Error("another seed left a stream unchanged")
	}
	perm := slices.Sorted(slices.Values(a.questions[:len(bench.Dev)]))
	for i, q := range perm {
		if q != i {
			t.Fatalf("one pass of the question stream is not a permutation of the dev set")
		}
	}
}

// TestCompletionRateIgnoresOneStall checks that a stall slowing one
// window of the overload step leaves its completion rate alone.
func TestCompletionRateIgnoresOneStall(t *testing.T) {
	const window = 1000
	var done []time.Duration
	var at time.Duration
	for i := range 5 * window {
		at += time.Millisecond
		if i == 2*window+10 {
			at += 500 * time.Millisecond
		}
		done = append(done, at)
	}
	if got := completionRate(done, window); got != 1000 {
		t.Errorf("completion rate %v/s, want 1000/s", got)
	}
	if got := completionRate(done[:window-1], window); got != 0 {
		t.Errorf("less than one window gave %v/s, want 0", got)
	}
}
