package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/experiments"
	"github.com/parallel-frontend/pfe/internal/obs/span"
	"github.com/parallel-frontend/pfe/internal/program"
)

// The artifact tiers are sized like pfe-bench's defaults (-artifact-mem 256,
// -artifact-disk 4096), so the benchmark measures the path users run.
const (
	cacheBytes = 256 << 20
	storeBytes = 4096 << 20
)

// errNotCold marks a run refused by the cold-run guard: it would have
// measured artifacts or results inherited from an earlier run.
var errNotCold = errors.New("cold-run guard")

// workload is one named cold sweep.
type workload struct {
	name string
	// exps lists the experiment ids the sweep runs, in paper order; nil
	// means every experiment.
	exps            []string
	warmup, measure int64
	sample          bool
	// benches restricts the suite (nil = all twelve); tests use it to keep
	// sweeps small.
	benches []string
	// cells is the number of cells one sweep attempts; memoized is how many
	// of them the in-run result memo must serve (cells that an earlier
	// experiment of the same sweep already simulated).
	cells, memoized int
}

var workloads = []workload{
	{name: "fig8-cold", exps: []string{"fig8"}, warmup: 100_000, measure: 300_000, cells: 84},
	{name: "fig8-sampled", exps: []string{"fig8"}, warmup: 2_000_000, measure: 1_000_000, sample: true, cells: 84},
	{name: "paper-all", warmup: 10_000, measure: 30_000, cells: 960, memoized: 240},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func (w workload) experiments() ([]experiments.Experiment, error) {
	if w.exps == nil {
		return experiments.All(), nil
	}
	out := make([]experiments.Experiment, len(w.exps))
	for i, id := range w.exps {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func (w workload) suite() []string {
	if w.benches != nil {
		return append([]string(nil), w.benches...)
	}
	return pfe.Benchmarks()
}

// tapeInsts is the recording budget every cell of the workload asks the
// artifact cache for (pfe.Run: warmup + measure + TapeSlack).
func (w workload) tapeInsts() uint64 {
	return uint64(w.warmup+w.measure) + artifact.TapeSlack
}

// env is one cold run's artifact tiers: a fresh in-memory cache in front of
// a fresh on-disk store, wired as pfe-bench wires them by default.
type env struct {
	store *store.Store
	cache *artifact.Cache
}

// newEnv opens the store at dir and refuses it unless it is empty: a store
// whose index journal replays any entry would serve inherited artifacts and
// results instead of building and simulating them.
func newEnv(dir string) (*env, error) {
	st, err := store.Open(dir, storeBytes)
	if err != nil {
		return nil, err
	}
	if s := st.Stats(); s.Entries > 0 || s.Orphans > 0 || s.TornTail > 0 || s.Rebuilt {
		st.Close()
		return nil, fmt.Errorf("%w: store %s is not empty (journal replayed %d entries, %d orphans, %d torn records)",
			errNotCold, dir, s.Entries, s.Orphans, s.TornTail)
	}
	c := artifact.New(cacheBytes)
	c.SetStore(st, experiments.ResultCodec{})
	return &env{store: st, cache: c}, nil
}

// setup builds every program image and records every oracle tape the
// workload's cells will request, through the env's cache and store.
func (w workload) setup(e *env, benches []string) (time.Duration, error) {
	start := time.Now()
	for _, b := range benches {
		spec, err := program.SpecByName(b)
		if err != nil {
			return 0, err
		}
		if _, err := e.cache.Program(spec); err != nil {
			return 0, fmt.Errorf("setup: building %s: %w", b, err)
		}
		if _, err := e.cache.Tape(spec, w.tapeInsts()); err != nil {
			return 0, fmt.Errorf("setup: recording %s: %w", b, err)
		}
	}
	return time.Since(start), nil
}

// sweepResult is what one sweep measured.
type sweepResult struct {
	wall time.Duration
	// cellCPU sums the wall time of simulated cells: core-seconds of
	// simulation, independent of how cells pack onto workers.
	cellCPU             time.Duration
	simulated, memoized int
	errored             int
	rows                map[string]string // "exp\tbench\tkey" -> row hash

	// Scheduler totals over the sweep's batches.
	workers      int
	batchWall    time.Duration
	busy         float64
	steals       int
	stageSeconds map[string]float64
	fetched      float64
	committed    float64
	cache        artifact.Stats
	disk         store.Stats
	goRuntime    goStats
	spans        []span.Record
}

// recorder is the sweep's experiments.Observer: it keeps every completed
// cell's row hash and the scheduler's per-batch statistics. Completed runs
// on worker goroutines.
type recorder struct {
	mu  sync.Mutex
	res *sweepResult
}

type observer struct {
	exp string
	rec *recorder
}

func (o *observer) Planned(int) {}

func (o *observer) Completed(bench, key string, wall time.Duration, r *pfe.Result) {
	h := rowHash(r)
	o.rec.mu.Lock()
	defer o.rec.mu.Unlock()
	res := o.rec.res
	res.rows[o.exp+"\t"+bench+"\t"+key] = h
	if wall == 0 {
		// The harness reports memoized cells with zero wall time.
		res.memoized++
		return
	}
	res.simulated++
	res.cellCPU += wall
	for k, v := range r.StageSeconds {
		res.stageSeconds[k] += v
	}
	res.fetched += r.FetchRate * float64(r.Cycles)
	res.committed += float64(r.Committed)
}

func (o *observer) Sharded(wall time.Duration, stats []experiments.ShardStat) {
	o.rec.mu.Lock()
	defer o.rec.mu.Unlock()
	res := o.rec.res
	res.batchWall += wall
	for _, s := range stats {
		res.busy += s.BusySeconds
		res.steals += s.Stolen
	}
}

// sweep runs the workload's experiments once on the in-process path over
// e's tiers. A non-nil tracer turns on span tracing and per-stage
// self-profiling and captures Go runtime statistics over the sweep.
func (w workload) sweep(e *env, benches []string, workers int, spans *span.Tracer) (*sweepResult, error) {
	exps, err := w.experiments()
	if err != nil {
		return nil, err
	}
	res := &sweepResult{rows: map[string]string{}, stageSeconds: map[string]float64{}, workers: workers}
	rec := &recorder{res: res}
	fails := &experiments.FailureLog{}
	opts := experiments.Options{
		Warmup: w.warmup, Measure: w.measure, Benchmarks: benches, Workers: workers,
		Artifacts: e.cache, Spans: spans, SelfProfile: spans != nil,
		// Count failing cells instead of aborting on the first one.
		FailBudget: w.cells, Failures: fails,
	}
	if w.sample {
		sp := pfe.DefaultSampleSpec()
		opts.Sample = &sp
	}
	before := e.cache.Stats()
	var stopGo func() goStats
	if spans != nil {
		stopGo = watchGo()
	}
	start := time.Now()
	for _, x := range exps {
		opts.ExperimentID = x.ID
		opts.Observer = &observer{exp: x.ID, rec: rec}
		if _, err := x.Run(opts); err != nil {
			if stopGo != nil {
				stopGo()
			}
			return nil, fmt.Errorf("%s: %w", x.ID, err)
		}
	}
	res.wall = time.Since(start)
	if stopGo != nil {
		res.goRuntime = stopGo()
		spans.Close()
		res.spans = spans.Records()
	}
	res.errored = fails.Len()
	res.cache = e.cache.Stats()
	res.disk = e.store.Stats()
	return res, w.checkCold(before, res)
}

// checkCold is the cold-run guard applied after every sweep: nothing may
// come from the persistent store, nothing may be built after set-up, and
// exactly the workload's in-run duplicates may be served by the result memo.
func (w workload) checkCold(before artifact.Stats, r *sweepResult) error {
	var bad []string
	if n := r.disk.Hits(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d store disk hits", n))
	}
	if n := r.cache.ProgramMisses - before.ProgramMisses + r.cache.TapeMisses - before.TapeMisses; n != 0 {
		bad = append(bad, fmt.Sprintf("%d program/tape builds after set-up", n))
	}
	if r.memoized != w.memoized {
		bad = append(bad, fmt.Sprintf("%d memoized cells, want %d", r.memoized, w.memoized))
	}
	if n := r.cache.ResultHits - before.ResultHits; n != int64(r.memoized) {
		bad = append(bad, fmt.Sprintf("%d result memo hits for %d memoized cells", n, r.memoized))
	}
	for _, rec := range r.spans {
		if a := rec.Annot("source"); a != nil && a.Str != "memo-hit" {
			bad = append(bad, fmt.Sprintf("cell %s/%s/%s served by %s", rec.Batch, rec.Bench, rec.Key, a.Str))
			break
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%w: %s", errNotCold, strings.Join(bad, "; "))
	}
	return nil
}

// rowHash digests one cell's scalar result fields, floats in their exact
// shortest round-trip form.
func rowHash(r *pfe.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%t|%d|%d|%d|%d|%d", r.Bench, r.Config, r.Failed, r.Cycles, r.Committed,
		r.LiveOutMispredicts, r.LiveOutMisses, r.Redirects)
	fs := []float64{r.IPC, r.FetchSlotUtilization, r.FetchRate, r.RenameRate, r.FragPredAccuracy,
		r.L1IMissRate, r.L1DMissRate, r.TCHitRate, r.BufferReuseRate, r.FragsConstructedEarly,
		r.RenamedBeforeSourceFrac, r.SampledIPC}
	if s := r.Sampling; s != nil {
		fmt.Fprintf(&b, "|%d|%d|%d", s.Windows, s.DetailedInsts, s.SkippedInsts)
		fs = append(fs, s.IPCMean, s.IPCStdDev, s.IPCStdErr, s.IPCCI95)
	}
	for _, f := range fs {
		b.WriteByte('|')
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// rowLines renders rows as sorted "exp\tbench\tkey\thash" lines, the form
// the reference files hold; sorting makes them independent of cell order.
func rowLines(rows map[string]string) []string {
	lines := make([]string, 0, len(rows))
	for k, h := range rows {
		lines = append(lines, k+"\t"+h)
	}
	sort.Strings(lines)
	return lines
}

// digest is one hash over a sweep's sorted rows.
func digest(rows map[string]string) string {
	sum := sha256.Sum256([]byte(strings.Join(rowLines(rows), "\n")))
	return hex.EncodeToString(sum[:8])
}

// parseReference reads reference lines back into a rows map.
func parseReference(text string) (map[string]string, error) {
	rows := map[string]string{}
	for i, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("reference line %d: want exp, bench, key and hash separated by tabs", i+1)
		}
		rows[strings.Join(f[:3], "\t")] = f[3]
	}
	return rows, nil
}

// mismatches counts the cells of rows that differ from ref: wrong hash,
// missing, or not in the reference at all.
func mismatches(rows, ref map[string]string) int {
	n := 0
	for k, h := range ref {
		if rows[k] != h {
			n++
		}
	}
	for k := range rows {
		if _, ok := ref[k]; !ok {
			n++
		}
	}
	return n
}
