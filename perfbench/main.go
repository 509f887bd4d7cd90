// Command perfbench is the repository's cold-sweep benchmark. It runs one
// named paper sweep through the in-process experiments path that pfe-bench
// uses by default (an in-memory artifact cache in front of an on-disk store),
// against a fresh, empty store on every sweep, and checks every row against
// the reference recorded in reference/.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench -workload fig8-cold -seed 1 -seconds 40 -trace 0
//
// With -trace 0 it prints the end-to-end metrics (sweep_s, setup_s,
// cell_cpu_s, peak_rss_mib) from untraced sweeps; with -trace 1 it prints the
// per-layer split from one traced sweep (span tracing and per-stage
// self-profiling on), an untraced sweep for the tracing overhead, and
// outside timings of each layer's entry points. The last stdout line is a
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/parallel-frontend/pfe/internal/obs/span"
)

// A run times at least minSetups cold set-ups, and keeps timing them until
// they add up to minSetupTime; setup_s is their median. Set-up takes 0.1 s to
// 2 s depending on the workload, so a fixed count would leave the short ones
// at the mercy of a single slow fsync.
const (
	minSetups    = 5
	minSetupTime = 2 * time.Second
)

//go:embed reference
var referenceFS embed.FS

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig8-cold, fig8-sampled or paper-all")
	seed := fs.Int64("seed", 1, "shuffles the order the suite benchmarks are handed to each sweep (never the programs)")
	seconds := fs.Float64("seconds", 40, "measure about this many seconds of sweeps: sweeps repeat while the next one still fits")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced sweeps; 1: per-layer metrics from a traced sweep")
	root := fs.String("root", filepath.Join(".bench_build", "runs"), "scratch directory for the fresh stores")
	gitSHA := fs.String("git-sha", "", "git SHA of the code under test (a source digest outside git), for provenance")
	writeRef := fs.String("write-reference", "", "record this run's rows as the workload's reference file in this directory instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("want -trace 0 or 1 and -seconds > 0")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r, err := newRunner(w, *seed, *root, *writeRef == "")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	sha := *gitSHA
	if sha == "" {
		sha = "unknown"
	}
	fmt.Fprintf(stdout, "provenance: workload=%s seed=%d nproc=%d gomaxprocs=%d workers=%d go=%s git=%s\n",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), r.workers, runtime.Version(), sha)
	fmt.Fprintf(stdout, "benchmark order: %s\n", strings.Join(r.benches, ","))

	var out *result
	if *trace == 1 {
		out, err = r.traced(stdout)
	} else {
		out, err = r.untraced(stdout, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *writeRef != "" {
		path := filepath.Join(*writeRef, w.name+".tsv")
		if err := os.WriteFile(path, []byte(strings.Join(rowLines(out.rows), "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "reference: wrote %d rows to %s\n", len(out.rows), path)
	}
	for _, m := range out.metrics {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "%-34s %7d / %d cells\n", "cells_failed / cells_attempted", out.failed, out.attempted)
	return printJSON(stdout, stderr, out)
}

// result is what a run reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	rows              map[string]string // the first sweep's rows
}

func printJSON(stdout, stderr io.Writer, out *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range out.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runner holds what every sweep of one run shares.
type runner struct {
	w       workload
	seed    int64
	benches []string // suite in this run's seeded order
	workers int
	root    string
	ref     map[string]string // nil when recording a reference
}

func newRunner(w workload, seed int64, root string, check bool) (*runner, error) {
	// Workers and GOMAXPROCS are pinned to the CPUs this process may use.
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	benches := w.suite()
	rand.New(rand.NewSource(seed)).Shuffle(len(benches), func(i, j int) {
		benches[i], benches[j] = benches[j], benches[i]
	})
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	r := &runner{w: w, seed: seed, benches: benches, workers: n, root: root}
	if check {
		text, err := referenceFS.ReadFile("reference/" + w.name + ".tsv")
		if err != nil {
			return nil, fmt.Errorf("no reference rows for %s: %w", w.name, err)
		}
		if r.ref, err = parseReference(string(text)); err != nil {
			return nil, fmt.Errorf("reference/%s.tsv: %w", w.name, err)
		}
		if len(r.ref) != w.cells {
			return nil, fmt.Errorf("reference/%s.tsv holds %d rows, want %d", w.name, len(r.ref), w.cells)
		}
	}
	return r, nil
}

// coldSweep sets up and runs one sweep against a fresh store directory under
// the run's root, removed afterwards.
func (r *runner) coldSweep(spans *span.Tracer) (time.Duration, *sweepResult, error) {
	dir, err := os.MkdirTemp(r.root, "store-")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	return r.coldSweepAt(dir, spans)
}

// coldSweepAt is coldSweep against the store at dir, which the cold-run
// guard requires to be empty.
func (r *runner) coldSweepAt(dir string, spans *span.Tracer) (time.Duration, *sweepResult, error) {
	e, err := newEnv(dir)
	if err != nil {
		return 0, nil, err
	}
	defer e.store.Close()
	setup, err := r.w.setup(e, r.benches)
	if err != nil {
		return 0, nil, err
	}
	res, err := r.w.sweep(e, r.benches, r.workers, spans)
	return setup, res, err
}

// coldSetup times one set-up in a fresh env with no sweep after it.
func (r *runner) coldSetup() (time.Duration, error) {
	dir, err := os.MkdirTemp(r.root, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	e, err := newEnv(dir)
	if err != nil {
		return 0, err
	}
	defer e.store.Close()
	return r.w.setup(e, r.benches)
}

// failures counts a sweep's failed cells: errored, or not matching the
// reference row for row. Without a reference it checks the sweep against
// the run's first sweep instead.
func (r *runner) failures(res *sweepResult, first map[string]string) int {
	ref := r.ref
	if ref == nil {
		ref = first
	}
	return res.errored + mismatches(res.rows, ref)
}

func (r *runner) report(stdout io.Writer, label string, setup time.Duration, res *sweepResult, failed int) {
	fmt.Fprintf(stdout, "%s: setup %.3fs, sweep %.3fs, cell cpu %.3fs, %d cells (%d simulated, %d memoized), digest %s, %d failed\n",
		label, setup.Seconds(), res.wall.Seconds(), res.cellCPU.Seconds(),
		res.simulated+res.memoized, res.simulated, res.memoized, digest(res.rows), failed)
}

// untraced measures the end-to-end metrics: cold sweeps (each over its own
// set-up) while the sweeps' summed wall time, the next one included, is
// expected to stay within budget, at least one; then more cold set-ups on
// their own until there are enough (see minSetups). Set-up time is not
// counted against the budget.
func (r *runner) untraced(stdout io.Writer, budget time.Duration) (*result, error) {
	var setups, sweeps, cpus []float64
	var setupTime, swept time.Duration
	out := &result{}
	for {
		setup, res, err := r.coldSweep(nil)
		if err != nil {
			return nil, err
		}
		if out.rows == nil {
			out.rows = res.rows
		}
		failed := r.failures(res, out.rows)
		r.report(stdout, fmt.Sprintf("sweep %d", len(sweeps)+1), setup, res, failed)
		setups = append(setups, setup.Seconds())
		setupTime += setup
		sweeps = append(sweeps, res.wall.Seconds())
		cpus = append(cpus, res.cellCPU.Seconds())
		out.attempted += r.w.cells
		out.failed += failed
		if swept += res.wall; swept+res.wall > budget {
			break
		}
	}
	for len(setups) < minSetups || setupTime < minSetupTime {
		d, err := r.coldSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		setupTime += d
	}
	out.correct = out.failed == 0
	out.metrics = []metric{
		{"sweep_s", "s", median(sweeps)},
		{"setup_s", "s", median(setups)},
		{"cell_cpu_s", "s", median(cpus)},
		{"peak_rss_mib", "MiB", peakRSSMiB()},
	}
	return out, nil
}

// traced measures the per-layer metrics: an untraced cold sweep as the
// overhead baseline, a traced cold sweep, and outside timings of the layer
// entry points. Both sweeps must reproduce the reference rows.
func (r *runner) traced(stdout io.Writer) (*result, error) {
	setup, base, err := r.coldSweep(nil)
	if err != nil {
		return nil, err
	}
	out := &result{rows: base.rows, attempted: 2 * r.w.cells}
	failed := r.failures(base, base.rows)
	r.report(stdout, "untraced sweep", setup, base, failed)
	out.failed += failed

	runtime.GC()
	setup, tr, err := r.coldSweep(span.New())
	if err != nil {
		return nil, err
	}
	failed = r.failures(tr, base.rows)
	r.report(stdout, "traced sweep", setup, tr, failed)
	out.failed += failed
	if digest(tr.rows) != digest(base.rows) {
		return nil, errors.New("traced and untraced sweeps produced different rows")
	}

	printShares(stdout, tr)
	entry, err := timeEntryPoints(r.w, r.benches, r.seed, r.root)
	if err != nil {
		return nil, err
	}
	out.metrics = append(layerMetrics(tr, base), entry...)
	sort.SliceStable(out.metrics, func(i, j int) bool { return out.metrics[i].name < out.metrics[j].name })
	out.correct = out.failed == 0
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
