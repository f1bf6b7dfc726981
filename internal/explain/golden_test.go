package explain

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cyclesql/internal/datasets"
	"cyclesql/internal/nl2sql"
	"cyclesql/internal/sqleval"
	"cyclesql/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden explanation digests")

const goldenBeam = 8

// TestExplanationGolden pins the raw (unpolished) explanation text of row 0
// for every executing beam-8 candidate of every Spider dev question, under
// every simulated model. Each (model, question) pair contributes one line:
// the FNV-1a digest of its candidates' texts in beam order, so any change
// to phrase content or order shows up as a line diff naming the question.
// Regenerate with `go test ./internal/explain -run TestExplanationGolden
// -update` only when a change to the explanation text is deliberate.
func TestExplanationGolden(t *testing.T) {
	bench := datasets.Spider()
	execs := map[*storage.Database]*sqleval.Executor{}
	explainers := map[*storage.Database]*Explainer{}
	var b strings.Builder
	explained := 0
	for _, name := range nl2sql.ModelNames() {
		model := nl2sql.MustByName(name)
		for _, ex := range bench.Dev {
			db := bench.DB(ex.DBName)
			if execs[db] == nil {
				execs[db], explainers[db] = sqleval.New(db), New(db)
			}
			h := fnv.New64a()
			n := 0
			for i, c := range model.Translate(bench.Name, ex, db, goldenBeam) {
				rel, err := execs[db].Exec(c.Stmt)
				if err != nil {
					continue
				}
				n++
				fmt.Fprintf(h, "%d\x00", i)
				if exp, err := explainers[db].Explain(c.Stmt, rel, 0); err != nil {
					fmt.Fprintf(h, "error: %v\n", err)
				} else {
					fmt.Fprintf(h, "%s\n", exp.Text)
				}
			}
			explained += n
			fmt.Fprintf(&b, "%s %s %d %016x\n", name, ex.ID, n, h.Sum64())
		}
	}
	golden := filepath.Join("testdata", "explanations.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", golden, err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w && shown < 5 {
			t.Errorf("explanation drift at line %d: got %q want %q", i+1, g, w)
			shown++
		}
	}
	if shown == 0 {
		t.Errorf("explanation digest drift (%d candidates explained)", explained)
	}
}
