package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"cyclesql/internal/core"
	"cyclesql/internal/datasets"
	"cyclesql/internal/eval"
	"cyclesql/internal/experiments"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/nli"
	"cyclesql/internal/serve"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// workload binds a workload name to its untraced and traced runs. A
// serve workload goes through the HTTP server while the seeded inserts
// write to the tenants' tables.
type workload struct {
	serve       bool
	run, traced func(*env, *report) error
}

var workloads = map[string]workload{
	"dev-exhaust": {run: runDevExhaust, traced: traceDevExhaust},
	"serve-write": {serve: true, run: runServe, traced: traceServe},
}

// Independent seeded streams: each generator mixes --seed with its own
// constant, so the question order, arrival times and inserts change with
// the seed and never with each other.
const (
	streamQuestions = iota + 1
	streamArrivals
	streamInserts
)

func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.cfg.seed, stream))
}

// questionStream yields dev indices, one seeded permutation per pass.
type questionStream struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func (e *env) questions() *questionStream {
	return &questionStream{rng: e.rng(streamQuestions), perm: make([]int, len(e.dev))}
}

func (s *questionStream) next() int {
	if s.pos == 0 {
		for i := range s.perm {
			s.perm[i] = i
		}
		s.rng.Shuffle(len(s.perm), func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	}
	q := s.perm[s.pos]
	s.pos = (s.pos + 1) % len(s.perm)
	return q
}

// atPassStart reports whether the next question starts a new pass.
func (s *questionStream) atPassStart() bool { return s.pos == 0 }

// outcome is what a translation answered, as the serve response and the
// direct Translate call both report it.
type outcome struct {
	sql        string
	verified   bool
	iterations int
}

func outcomeOf(res *core.Result) outcome {
	return outcome{sql: res.FinalSQL, verified: res.Verified, iterations: res.Iterations}
}

type env struct {
	cfg      config
	w        workload
	bench    *datasets.Benchmark
	dev      []datasets.Example
	pipeline *core.Pipeline
	verifier nli.Verifier
	// finals is each dev question's final SQL from the warm-up pass.
	finals []*sqlast.SelectStmt
	digest []digestLine

	// Serve workloads only.
	srv     *http.Server
	served  chan error
	base    string
	clients []*http.Client
	bodies  []string
	paths   []string
	inserts *inserter
}

// setup builds everything the first timed request needs: the dataset,
// the verifier, the pipeline, and for the serve workload the server on
// a loopback listener, followed by one checked warm-up pass.
func setup(cfg config, rep *report) (*env, error) {
	e := &env{cfg: cfg, w: workloads[cfg.workload], bench: datasets.Spider()}
	e.dev = e.bench.Dev
	if cfg.first > 0 && cfg.first < len(e.dev) {
		e.dev = e.dev[:cfg.first]
	}
	if e.w.serve {
		e.verifier = experiments.Verifier(experiments.DefaultLimits)
	} else {
		e.verifier = rejectAll
		d, err := loadDigest(len(e.dev))
		if err != nil {
			return nil, err
		}
		e.digest = d
	}
	e.pipeline = newPipeline(e.bench, e.verifier)
	if !e.w.serve {
		e.warmDirect(rep)
		return e, nil
	}
	if err := e.startServer(); err != nil {
		return e, err
	}
	e.inserts = newInserter(e)
	return e, e.warmServe(rep)
}

// rejectAll makes the loop examine every candidate of the beam.
var rejectAll = nli.Func{Label: "reject-all", Fn: func(string, nli.Premise) bool { return false }}

func newPipeline(bench *datasets.Benchmark, v nli.Verifier) *core.Pipeline {
	return core.New(nl2sql.MustByName(modelName), core.WithVerifier(v),
		core.WithBenchmark(bench.Name), core.WithBeamSize(beamSize))
}

// warmDirect translates every question once, checking each against the
// digest, and keeps the finals for ex_pct.
func (e *env) warmDirect(rep *report) {
	e.finals = make([]*sqlast.SelectStmt, len(e.dev))
	for i, ex := range e.dev {
		res, err := e.pipeline.Translate(context.Background(), ex, e.bench.DB(ex.DBName))
		rep.attempted++
		if err != nil {
			rep.fail("warm-up %s: %v", ex.ID, err)
			continue
		}
		if !e.digest[i].matches(res) {
			rep.fail("warm-up %s: output differs from the digest", ex.ID)
		}
		e.finals[i] = res.Final
	}
}

func (e *env) startServer() error {
	h := serve.New(serve.Config{Bench: e.bench, Verifier: e.verifier, DefaultModel: modelName, Beam: beamSize}).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen on loopback: %w", err)
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for range clients {
		e.clients = append(e.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	e.bodies = make([]string, len(e.dev))
	e.paths = make([]string, len(e.dev))
	for i, ex := range e.dev {
		b, err := json.Marshal(serve.TranslateRequest{Question: ex.Question})
		if err != nil {
			return err
		}
		e.bodies[i] = string(b)
		e.paths[i] = e.base + "/v1/" + ex.DBName + "/translate"
	}
	return nil
}

// warmServe computes the direct Translate answer of every question, then
// asks the server each question once on every client, checking each
// response against it.
func (e *env) warmServe(rep *report) error {
	expected := make([]outcome, len(e.dev))
	for i, ex := range e.dev {
		res, err := e.pipeline.Translate(context.Background(), ex, e.bench.DB(ex.DBName))
		if err != nil {
			return fmt.Errorf("direct translate %s: %w", ex.ID, err)
		}
		expected[i] = outcomeOf(res)
	}
	for i := range e.dev {
		for _, c := range e.clients {
			rep.attempted++
			got, err := e.post(c, i)
			if err != nil {
				rep.fail("warm-up %s: %v", e.dev[i].ID, err)
				continue
			}
			if got.outcome() != expected[i] {
				rep.fail("warm-up %s: served %+v, direct Translate %+v", e.dev[i].ID, got.outcome(), expected[i])
			}
		}
	}
	return nil
}

type response struct{ serve.TranslateResponse }

func (r response) outcome() outcome {
	return outcome{sql: r.SQL, verified: r.Verified, iterations: r.Iterations}
}

// post sends dev question q to the server and decodes the 200 answer.
func (e *env) post(c *http.Client, q int) (response, error) {
	var out response
	resp, err := c.Post(e.paths[q], "application/json", strings.NewReader(e.bodies[q]))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out.TranslateResponse); err != nil {
		return out, fmt.Errorf("decode response: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return out, err
}

// serverMetrics reads GET /metrics.
func (e *env) serverMetrics() (serve.MetricsView, error) {
	var v serve.MetricsView
	resp, err := e.clients[0].Get(e.base + "/metrics")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// close stops the server, if one started, and waits for it to return.
func (e *env) close() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "server:", err)
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
}

// exPct is the share of dev questions whose final SQL executes to the
// gold result on db(name).
func (e *env) exPct(finals []*sqlast.SelectStmt, db func(name string) *storage.Database) float64 {
	hits := 0
	for i, ex := range e.dev {
		if finals[i] != nil && eval.EX(db(ex.DBName), finals[i], ex.Gold) {
			hits++
		}
	}
	return 100 * float64(hits) / float64(len(e.dev))
}

// insertTarget is a table the dev questions read that has one INTEGER
// primary key, so a copied row can take a fresh key.
type insertTarget struct {
	db    *storage.Database
	name  string
	table string
	rows  []sqltypes.Row // rows as of set-up, the copy sources
	pk    int
	next  int64
}

// inserter issues the seeded insert stream of the serve workload. It is
// used from one goroutine at a time.
type inserter struct {
	targets []*insertTarget
	rng     *rand.Rand
	took    []time.Duration
	// rows and added count each tenant's rows at set-up and the rows
	// inserted since, so a run can state how much the tables grew.
	rows, added map[string]int
}

func newInserter(e *env) *inserter {
	seen := map[string]bool{}
	var targets []*insertTarget
	for _, ex := range e.dev {
		for _, c := range ex.Gold.Cores {
			for _, ref := range c.Tables() {
				key := ex.DBName + "." + strings.ToLower(ref.Name)
				if ref.Name == "" || seen[key] {
					continue
				}
				seen[key] = true
				if t := newTarget(e.bench.DB(ex.DBName), ex.DBName, ref.Name); t != nil {
					targets = append(targets, t)
				}
			}
		}
	}
	slices.SortFunc(targets, func(a, b *insertTarget) int {
		return strings.Compare(a.name+"."+a.table, b.name+"."+b.table)
	})
	in := &inserter{targets: targets, rng: e.rng(streamInserts), rows: map[string]int{}, added: map[string]int{}}
	for _, t := range targets {
		in.rows[t.name] = t.db.TotalRows()
	}
	return in
}

// growth states each written tenant's inserted rows against its rows at
// set-up.
func (in *inserter) growth() string {
	var parts []string
	for _, name := range slices.Sorted(maps.Keys(in.added)) {
		parts = append(parts, fmt.Sprintf("%s +%d/%d", name, in.added[name], in.rows[name]))
	}
	return strings.Join(parts, ", ")
}

func newTarget(db *storage.Database, dbName, table string) *insertTarget {
	st := db.Schema.Table(table)
	if st == nil {
		return nil
	}
	pk := -1
	for i, c := range st.Columns {
		if c.PrimaryKey {
			if pk >= 0 || c.Type != sqltypes.KindInt {
				return nil
			}
			pk = i
		}
	}
	rel := db.Table(table)
	if pk < 0 || rel == nil || rel.NumRows() == 0 {
		return nil
	}
	t := &insertTarget{db: db, name: dbName, table: st.Name, rows: slices.Clone(rel.Rows), pk: pk}
	for _, r := range t.rows {
		t.next = max(t.next, r[pk].Int()+1)
	}
	return t
}

// draw picks the next insert of the seeded stream: a copy of a row
// drawn uniformly from all targets' rows, under a fresh key. Each table
// so grows by about the same fraction of its rows.
func (in *inserter) draw() (*insertTarget, sqltypes.Row) {
	total := 0
	for _, t := range in.targets {
		total += len(t.rows)
	}
	i := in.rng.IntN(total)
	for _, t := range in.targets {
		if i >= len(t.rows) {
			i -= len(t.rows)
			continue
		}
		row := t.rows[i].Clone()
		row[t.pk] = sqltypes.NewInt(t.next)
		t.next++
		return t, row
	}
	panic("unreachable: i < total")
}

// insert makes the next insert of the stream.
func (in *inserter) insert() (*insertTarget, error) {
	t, row := in.draw()
	in.added[t.name]++
	start := time.Now()
	err := t.db.Insert(t.table, row)
	in.took = append(in.took, time.Since(start))
	return t, err
}
