// Command loopbench is the end-to-end benchmark of the CycleSQL loop
// (translate → execute → provenance → explain → verify). It drives the
// system only through public entry points — core.Pipeline.Translate,
// serve.New(...).Handler() behind a loopback listener, and
// storage.Database.Insert — checks every output, and prints one JSON
// result as its last line of output.
//
// Run it from the repository root:
//
//	bash loopbench/run.sh --workload dev-exhaust --seed 1 --seconds 15 --trace 0
//
// Workloads (the seed fixes the question order, the arrival schedule and
// the insert stream; every load comes from this one process, with at
// most 2 client goroutines and connections):
//
//   - dev-exhaust: closed loop, 1 client, no connections. All 270 Spider
//     dev questions in seeded order, resdsql-3b at beam 8, reject-all
//     verifier, after one warm-up pass. Every candidate runs the whole
//     execute → track → explain chain. Its working set fits every bounded
//     cache: 7 databases against 8 executor and explainer slots.
//   - serve-write: POST /v1/{tenant}/translate over the 7 dev tenants
//     with the trained verifier, while seeded inserts (insertRate per
//     second) copy rows of the tables the questions read under fresh
//     integer keys. Every write forces a snapshot re-pin, a copy-on-write
//     and cold per-tenant caches. Latency comes from a closed loop of one
//     client; max_rate_rps, the server's capacity, from seeded Poisson
//     arrivals at overloadRate, open loop, from 2 clients with one
//     connection each.
//
// With --trace 0 the result holds the end-to-end metrics (endToEnd);
// with --trace 1 a separate run replays the same question stream stage
// by stage, timing the calls into each module, and holds the per-layer
// metrics (perLayer) and the tracing overhead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// processStart approximates process start. Package main initializes
// after the runtime and every imported package; timed from outside, a
// set-up-only run takes under 10 ms longer than it reports.
var processStart = time.Now()

const (
	modelName = "resdsql-3b"
	beamSize  = 8
	// setupRuns is how many set-ups one run times; the reported setup_s
	// is their median. The first is the run's own, the rest are child
	// processes started after the timed window.
	setupRuns = 3
)

// metricDef names one printed metric and its unit; BENCHMARK.json lists
// the same names and units, which the tests hold it to.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_tps", "1/s"},
	{"max_rate_rps", "1/s"},
	{"ok_pct", "%"},
	{"allocs_per_translate", "count"},
	{"kb_per_translate", "KiB"},
	{"heap_live_mb", "MiB"},
	{"ex_pct", "%"},
}

var perLayer = []metricDef{
	{"nl2sql.beam_us", "us"},
	{"nl2sql.beam_allocs", "count"},
	{"sqlnorm.canonical_us", "us"},
	{"sqlnorm.cachekey_us", "us"},
	{"sqleval.exec_us", "us"},
	{"sqleval.compile_us", "us"},
	{"sqleval.exec_fail_ratio", "ratio"},
	{"provenance.track_us", "us"},
	{"provenance.track_allocs", "count"},
	{"explain.render_us", "us"},
	{"explain.render_allocs", "count"},
	{"nli.verify_us", "us"},
	{"nli.accept_ratio", "ratio"},
	{"core.overhead_us", "us"},
	{"core.iterations", "count"},
	{"core.self_us", "us"},
	{"serve.request_us", "us"},
	{"serve.self_us", "us"},
	{"serve.snapshot_refresh_ratio", "ratio"},
	{"serve.pipeline_miss_ratio", "ratio"},
	{"serve.gen_lag_us", "us"},
	{"storage.insert_us", "us"},
	{"storage.inserts", "count"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"trace.overhead_ms", "ms"},
}

type config struct {
	workload    string
	seed        uint64
	seconds     int
	trace       bool
	first       int
	setupRuns   int
	setupOnly   bool
	regenDigest string
}

// report is what a run measured: metric values by name, operation
// counts, and human-readable notes printed before the result line.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.note("FAIL "+format, args...)
	}
}

// errInvalid marks a run whose measurement cannot be trusted (the load
// generator ran late, or too few samples for a percentile). It is
// reported as invalid, never as a slow result.
var errInvalid = errors.New("invalid run")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "dev-exhaust or serve-write")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the question order, arrival schedule and insert stream")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the measurement")
	fs.IntVar(&trace, "trace", 0, "1 replays the stream stage by stage and prints per-layer metrics")
	fs.IntVar(&cfg.first, "first", 0, "use only the first N dev questions (0 = all 270)")
	fs.IntVar(&cfg.setupRuns, "setup-runs", setupRuns, "set-ups timed for setup_s")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, print the set-up time and exit")
	fs.StringVar(&cfg.regenDigest, "regen-digest", "", "write the dev-exhaust output digest to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "loopbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 || trace < 0 || trace > 1 || cfg.setupRuns < 1 {
		fmt.Fprintln(stderr, "loopbench: --seconds must be >= 1, --trace 0 or 1, --setup-runs >= 1")
		return 2
	}
	if cfg.regenDigest != "" {
		if err := regenDigest(cfg); err != nil {
			fmt.Fprintln(stderr, "loopbench:", err)
			return 1
		}
		return 0
	}
	rep, err := measure(cfg)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 1
	}
	if cfg.setupOnly {
		fmt.Fprintf(stdout, "setup_s %v\n", rep.values["setup_s"])
		return 0
	}
	line, err := resultLine(cfg, rep)
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure sets the workload up, runs it, and for an untraced run adds
// the set-up times of cfg.setupRuns-1 child processes.
func measure(cfg config) (*report, error) {
	rep := &report{values: map[string]float64{}}
	e, err := setup(cfg, rep)
	if e != nil {
		defer e.close()
	}
	if err != nil {
		return rep, err
	}
	setupS := time.Since(processStart).Seconds()
	rep.values["setup_s"] = setupS
	if cfg.setupOnly {
		return rep, nil
	}
	w := workloads[cfg.workload]
	if cfg.trace {
		err = w.traced(e, rep)
	} else {
		err = w.run(e, rep)
	}
	if err != nil || cfg.trace {
		return rep, err
	}
	samples := []float64{setupS}
	for i := 1; i < cfg.setupRuns; i++ {
		s, err := childSetup(cfg)
		if err != nil {
			return rep, fmt.Errorf("set-up sample %d: %w", i+1, err)
		}
		samples = append(samples, s)
	}
	rep.values["setup_s"], _ = percentile(samples, 0.5)
	rep.note("setup_s samples %v", samples)
	return rep, nil
}

// childSetup runs the set-up alone in a fresh process, so the sample
// pays for everything a real start does, and returns its set-up time.
func childSetup(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--first", strconv.Itoa(cfg.first), "--setup-only")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	v, ok := strings.CutPrefix(last, "setup_s ")
	if !ok {
		return 0, fmt.Errorf("child printed %q, want a setup_s line", last)
	}
	return strconv.ParseFloat(v, 64)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the last output line: exactly the metrics of the
// run's kind, each with its unit.
func resultLine(cfg config, rep *report) ([]byte, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if rep.attempted < 1 {
		return nil, fmt.Errorf("%w: nothing was attempted", errInvalid)
	}
	out := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}
