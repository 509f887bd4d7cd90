package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/obs/span"
)

// tiny is a small Fig 8 sweep (4 benchmarks × 7 presets at short budgets)
// for tests of the benchmark's own machinery.
func tiny() workload {
	return workload{name: "tiny", exps: []string{"fig8"}, warmup: 2_000, measure: 6_000,
		benches: []string{"gzip", "mcf", "gcc", "crafty"}, cells: 28}
}

func tinyRunner(t *testing.T, seed int64) *runner {
	t.Helper()
	r, err := newRunner(tiny(), seed, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPrefilledStoreRefused(t *testing.T) {
	r := tinyRunner(t, 1)
	dir := t.TempDir()
	if _, _, err := r.coldSweepAt(dir, nil); err != nil {
		t.Fatalf("sweep on an empty store: %v", err)
	}
	// The first sweep left programs, tapes and results in the store.
	_, _, err := r.coldSweepAt(dir, nil)
	if !errors.Is(err, errNotCold) {
		t.Fatalf("sweep on a pre-filled store: err = %v, want the cold-run guard", err)
	}
}

func TestColdGuard(t *testing.T) {
	w := tiny()
	w.memoized = 2
	clean := func() *sweepResult {
		return &sweepResult{memoized: 2, cache: artifact.Stats{ProgramMisses: 4, TapeMisses: 4, ResultHits: 2}}
	}
	before := artifact.Stats{ProgramMisses: 4, TapeMisses: 4}
	if err := w.checkCold(before, clean()); err != nil {
		t.Fatalf("clean sweep refused: %v", err)
	}
	for name, spoil := range map[string]func(*sweepResult){
		"disk hit":          func(r *sweepResult) { r.disk.Kinds = map[string]store.KindStats{"result": {Hits: 1}} },
		"build after setup": func(r *sweepResult) { r.cache.TapeMisses++ },
		"memoized count":    func(r *sweepResult) { r.memoized = 3; r.cache.ResultHits = 3 },
		"memo hit mismatch": func(r *sweepResult) { r.cache.ResultHits = 5 },
		"resume replay": func(r *sweepResult) {
			r.spans = []span.Record{{Kind: span.KindCell, Annots: []span.Annot{{Key: "source", Str: "resume-replay"}}}}
		},
	} {
		r := clean()
		spoil(r)
		if err := w.checkCold(before, r); !errors.Is(err, errNotCold) {
			t.Errorf("%s: err = %v, want the cold-run guard", name, err)
		}
	}
}

func TestSeedsGiveIdenticalRows(t *testing.T) {
	var orders [][]string
	var digests []string
	for _, seed := range []int64{1, 2} {
		r := tinyRunner(t, seed)
		_, res, err := r.coldSweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.errored != 0 || len(res.rows) != r.w.cells {
			t.Fatalf("seed %d: %d errored, %d rows, want 0 and %d", seed, res.errored, len(res.rows), r.w.cells)
		}
		orders = append(orders, r.benches)
		digests = append(digests, digest(res.rows))
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Fatalf("seeds 1 and 2 handed the sweep the same order %v", orders[0])
	}
	if digests[0] != digests[1] {
		t.Fatalf("digests differ across seeds: %s vs %s", digests[0], digests[1])
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark's output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func namesUnits(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name+" "+m.unit)
	}
	sort.Strings(out)
	return out
}

func specNamesUnits(ms []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name+" "+m.Unit)
	}
	sort.Strings(out)
	return out
}

// TestMetricsMatchBenchmarkJSON runs both modes on the tiny sweep and checks
// that they print exactly the metrics BENCHMARK.json declares, that the
// traced and untraced sweeps agree, and that every workload is declared.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %v", declared, have)
	}

	r := tinyRunner(t, 1)
	out, err := r.untraced(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct || out.attempted != r.w.cells {
		t.Errorf("untraced: correct=%v attempted=%d, want true and %d", out.correct, out.attempted, r.w.cells)
	}
	if got, want := namesUnits(out.metrics), specNamesUnits(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced metrics\n got %v\nwant %v", got, want)
	}
	out, err = r.traced(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct {
		t.Errorf("traced run not correct: %d of %d cells failed", out.failed, out.attempted)
	}
	if got, want := namesUnits(out.metrics), specNamesUnits(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced metrics\n got %v\nwant %v", got, want)
	}
}

func TestReferencesCoverEveryCell(t *testing.T) {
	for _, w := range workloads {
		text, err := referenceFS.ReadFile("reference/" + w.name + ".tsv")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := parseReference(string(text))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(ref) != w.cells {
			t.Errorf("%s: %d reference rows, want %d", w.name, len(ref), w.cells)
		}
		if got := strings.Join(rowLines(ref), "\n") + "\n"; got != string(text) {
			t.Errorf("%s: reference file is not in sorted row form", w.name)
		}
	}
}
