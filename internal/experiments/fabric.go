package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/fabric"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/obs/span"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/sim"
)

// Fabric switches runCells onto the distributed sweep fabric: instead of the
// in-process work-stealing pool, cells are leased to fabric workers over
// HTTP and their results folded back in. One Fabric serves one sweep (the
// batch numbering below is part of the cell addressing contract with
// workers, so a Fabric must not be reused across sweeps).
type Fabric struct {
	C *fabric.Coordinator

	mu   sync.Mutex
	next map[string]int
}

// nextBatch numbers runCells batches per experiment. Workers enumerate an
// experiment's batches in the same deterministic order, so (experiment,
// batch, index) names a cell across processes.
func (f *Fabric) nextBatch(exp string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next == nil {
		f.next = map[string]int{}
	}
	n := f.next[exp]
	f.next[exp] = n + 1
	return n
}

// FabricObserver is an optional Observer extension mirroring ShardObserver
// for distributed sweeps: after each batch it receives the coordinator's
// per-worker lease accounting alongside the batch wall time.
type FabricObserver interface {
	Observer
	Fabric(wall time.Duration, workers []fabric.WorkerStat)
}

// FabricConfig is the wire form of the sweep options a coordinator serves to
// its workers: everything that shapes a cell's identity and result (budgets,
// benchmark selection, acceleration modes, injected faults) and nothing
// process-local. A worker that applies this over its own base options
// enumerates the exact cell grid — and computes the exact config hashes —
// the coordinator did.
type FabricConfig struct {
	Warmup           int64             `json:"warmup"`
	Measure          int64             `json:"measure"`
	Benchmarks       []string          `json:"benchmarks,omitempty"`
	NoProgressCycles uint64            `json:"no_progress_cycles,omitempty"`
	FlightRecorder   int               `json:"flight_recorder,omitempty"`
	Inject           map[string]string `json:"inject,omitempty"`
	Sample           *pfe.SampleSpec   `json:"sample,omitempty"`
	Slices           int               `json:"slices,omitempty"`
	SliceWarmup      int64             `json:"slice_warmup,omitempty"`
}

// FabricConfig extracts the wire config from a coordinator's options.
func (o Options) FabricConfig() FabricConfig {
	return FabricConfig{
		Warmup:           o.Warmup,
		Measure:          o.Measure,
		Benchmarks:       o.Benchmarks,
		NoProgressCycles: o.NoProgressCycles,
		FlightRecorder:   o.FlightRecorder,
		Inject:           o.Inject,
		Sample:           o.Sample,
		Slices:           o.Slices,
		SliceWarmup:      o.SliceWarmup,
	}
}

// FabricConfigJSON marshals the wire config for fabric.Options.Config.
func (o Options) FabricConfigJSON() (json.RawMessage, error) {
	b, err := json.Marshal(o.FabricConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding fabric config: %w", err)
	}
	return b, nil
}

// ApplyTo overlays the wire config onto a worker's base options (which keep
// their process-local fields: artifact cache, dump dir, worker count).
func (fc FabricConfig) ApplyTo(o Options) Options {
	o.Warmup = fc.Warmup
	o.Measure = fc.Measure
	o.Benchmarks = fc.Benchmarks
	o.NoProgressCycles = fc.NoProgressCycles
	o.FlightRecorder = fc.FlightRecorder
	o.Inject = fc.Inject
	o.Sample = fc.Sample
	o.Slices = fc.Slices
	o.SliceWarmup = fc.SliceWarmup
	return o
}

// cellCollector records the cell grids runCells would execute, without
// executing them.
type cellCollector struct {
	batches [][]cell
}

// add records one batch and returns placeholder results so the experiment's
// rendering code stays total (the collector's caller discards the artifact).
func (cc *cellCollector) add(cells []cell) map[[2]string]*pfe.Result {
	cc.batches = append(cc.batches, append([]cell(nil), cells...))
	results := make(map[[2]string]*pfe.Result, len(cells))
	for i := range cells {
		c := &cells[i]
		results[[2]string{c.bench, c.key}] = &pfe.Result{Bench: c.bench, Config: c.machine.Name()}
	}
	return results
}

// enumerateCells rebuilds an experiment's deterministic cell grid under o by
// running it in collect mode: every runCells batch is recorded in order, no
// simulation happens. The grid is a pure function of (experiment, options) —
// that determinism is what lets a lease travel as (exp, batch, index) plus a
// hash instead of a serialized machine configuration.
func enumerateCells(expID string, o Options) ([][]cell, error) {
	e, err := ByID(expID)
	if err != nil {
		return nil, err
	}
	oc := o
	oc.collect = &cellCollector{}
	oc.Observer = nil
	oc.Sim = nil
	oc.Spans = nil
	oc.Journal = nil
	oc.Resume = nil
	oc.Fabric = nil
	oc.Failures = nil
	if _, err := e.Run(oc); err != nil {
		return nil, fmt.Errorf("experiments: enumerating %s cells: %w", expID, err)
	}
	return oc.collect.batches, nil
}

// runCellsFabric is runCells over the distributed fabric: resume replay and
// memo hits resolve locally exactly as in-process, the rest of the batch is
// registered with the coordinator's lease table and resolved by workers.
// Cell spans, journaling (with the accepting lease epoch), failure
// accounting and the FailBudget contract are preserved; test-hook cells
// (with a run closure) cannot travel and run locally.
func runCellsFabric(o Options, cells []cell) (map[[2]string]*pfe.Result, error) {
	if o.Observer != nil {
		o.Observer.Planned(len(cells))
	}
	ctx := o.ctx()
	ro := o.runOpts()
	outs := make([]cellOutcome, len(cells))
	batchNum := o.Fabric.nextBatch(o.ExperimentID)
	batch := o.Spans.StartBatch(o.ExperimentID, len(cells))
	start := time.Now()

	spans := make([]span.Span, len(cells))
	remote := make([]bool, len(cells))
	var refs []fabric.CellRef
	for i := range cells {
		c := &cells[i]
		if c.run != nil {
			outs[i] = o.runCell(ctx, c, ro, batch, 0, i)
			continue
		}
		hash := cellHash(c, ro)
		cs := batch.StartCell(i, c.bench, c.key, -1)
		cs.Str("cell_hash", hash)
		if out, ok := o.replayCell(cs, c, hash); ok {
			cs.End()
			outs[i] = out
			continue
		}
		spans[i] = cs
		remote[i] = true
		refs = append(refs, fabric.CellRef{
			Exp: o.ExperimentID, Batch: batchNum, Index: i,
			Bench: c.bench, Key: c.key, Hash: hash,
		})
	}

	// fail resolves cell i as a terminal failure (counters, failure log,
	// span close). The coordinator guarantees each cell resolves exactly
	// once, so outs[i] is written by exactly one hook invocation.
	fail := func(i int, f *obs.CellFailure) {
		cs := spans[i]
		cs.Str("outcome", "failed")
		cs.Int("attempts", int64(f.Attempts))
		if o.Sim != nil {
			o.Sim.CellFailures.Inc()
		}
		if o.Failures != nil {
			o.Failures.add(*f)
		}
		outs[i] = cellOutcome{fail: f}
		cs.End()
	}
	hooks := fabric.BatchHooks{
		OnLease: func(i int, worker string, num int, epoch int64) {
			spans[i].Str("leased_to", worker)
			spans[i].Int("epoch", epoch)
		},
		OnRequeue: func(i int, worker string, epoch int64, cause string) {
			spans[i].Str("requeue", fmt.Sprintf("%s under %s (epoch %d)", cause, worker, epoch))
			if o.Sim != nil {
				o.Sim.CellRetries.Inc()
			}
		},
		OnResult: func(i int, payload json.RawMessage, m fabric.ResultMeta) {
			c := &cells[i]
			cs := spans[i]
			var cr cellResult
			if err := json.Unmarshal(payload, &cr); err != nil {
				fail(i, &obs.CellFailure{
					Experiment: o.ExperimentID, Bench: c.bench, Key: c.key,
					Attempts: m.Attempts,
					Error:    fmt.Sprintf("fabric: undecodable result payload from worker %q: %v", m.Worker, err),
				})
				return
			}
			r := cr.toResult()
			cs.Str("source", "fabric")
			cs.Str("fabric_worker", m.Worker)
			if m.Attempts > 1 {
				cs.Int("retries", int64(m.Attempts-1))
			}
			hash := cellHash(c, ro)
			if o.Artifacts != nil && o.Inject[c.bench+"/"+c.key] == "" {
				o.Artifacts.PutResult(hash, r, memoResultBytes)
			}
			o.journalCell(cs, newCellRecord(o.ExperimentID, c, hash, m.Attempts, m.Epoch, r))
			wall := m.Wall
			if wall <= 0 {
				// Zero wall is the "did not simulate" convention upstream; a
				// remote cell always simulated, so clamp to a measurable tick.
				wall = time.Microsecond
			}
			if o.Observer != nil {
				o.Observer.Completed(c.bench, c.key, wall, r)
			}
			outs[i] = cellOutcome{r: r}
			cs.End()
		},
		OnFailure: func(i int, e fabric.CellError, attempts int) {
			c := &cells[i]
			fail(i, &obs.CellFailure{
				Experiment: o.ExperimentID, Bench: c.bench, Key: c.key,
				Attempts: attempts, Error: e.Msg, Panic: e.Panic,
				Stack: e.Stack, DumpPath: e.DumpPath,
			})
		},
	}
	stats, runErr := o.Fabric.C.RunBatch(ctx, refs, hooks)
	// A cancelled sweep leaves cells unresolved; their spans must still
	// close (an unended cell span never reaches the trace output).
	for i := range cells {
		if remote[i] && outs[i].r == nil && outs[i].fail == nil {
			spans[i].Str("outcome", "unrun")
			spans[i].End()
		}
	}
	batch.End()
	if fo, ok := o.Observer.(FabricObserver); ok {
		fo.Fabric(time.Since(start), stats)
	}
	if runErr != nil && !errors.Is(runErr, ctx.Err()) {
		return nil, fmt.Errorf("experiments: fabric batch: %w", runErr)
	}

	results := make(map[[2]string]*pfe.Result, len(cells))
	var failed int
	var firstFail *obs.CellFailure
	for i := range outs {
		c := &cells[i]
		switch {
		case outs[i].r != nil:
			results[[2]string{c.bench, c.key}] = outs[i].r
		case outs[i].fail != nil:
			failed++
			if firstFail == nil {
				firstFail = outs[i].fail
			}
			results[[2]string{c.bench, c.key}] = &pfe.Result{
				Bench: c.bench, Config: c.machine.Name(), Failed: true,
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return results, fmt.Errorf("experiments: sweep interrupted with %d/%d cells done: %w",
			len(results), len(cells), err)
	}
	if failed > o.FailBudget {
		return nil, fmt.Errorf("experiments: %d cells failed (budget %d); first: %s/%s after %d attempts: %s",
			failed, o.FailBudget, firstFail.Bench, firstFail.Key, firstFail.Attempts, firstFail.Error)
	}
	return results, nil
}

// FabricRunner executes leased cells on a worker: it re-enumerates the
// experiment's deterministic cell grid, cross-checks the lease against it
// (fault-domain isolation — an address out of range, a bench/key mismatch,
// or a config-hash skew is refused rather than simulated wrong), and runs
// the cell behind the same panic isolation as the in-process path.
type FabricRunner struct {
	// Opts are the worker-local options: normally the coordinator's
	// FabricConfig applied over a base carrying the worker's artifact cache
	// and dump dir.
	Opts Options

	// OnKill, when non-nil, replaces in-process abandonment for
	// kill-injected cells — the worker CLI exits the whole process, the
	// in-process -local fleet just walks off the lease.
	OnKill func()

	// OnHold, when non-nil, runs for a hold-injected cell and does not
	// return: the worker CLI blocks the leased cell until its process is
	// killed, so a kill drill lands while the lease is held, however fast
	// the cell would have run. Without it (in-process and -local runs,
	// where nothing would ever kill the holder) the cell fails instead.
	OnHold func()

	mu    sync.Mutex
	cells map[string][][]cell
}

// NewFabricRunner returns a runner for one sweep configuration.
func NewFabricRunner(o Options) *FabricRunner {
	return &FabricRunner{Opts: o, cells: map[string][][]cell{}}
}

// batches returns (enumerating once and caching) the cell grid of exp.
func (f *FabricRunner) batches(exp string) ([][]cell, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b, ok := f.cells[exp]; ok {
		return b, nil
	}
	b, err := enumerateCells(exp, f.Opts)
	if err != nil {
		return nil, err
	}
	f.cells[exp] = b
	return b, nil
}

// Prefetch warms the worker's artifact tiers for a queued lease: it resolves
// the lease to its cell exactly as Run would (refusing on any address, name
// or hash skew) and pulls the cell's program image and oracle tape through
// the cache's read-through chain — memory, local disk store, coordinator
// fetch — so the network transfer overlaps the preceding cell's compute. The
// cache's single-flight guarantees the eventual Run joins an in-flight
// prefetch instead of duplicating it. Safe to call concurrently with Run;
// failures are silent (the run pays the fetch itself and reports properly).
func (f *FabricRunner) Prefetch(lease fabric.Lease) {
	ref := lease.Cell
	o := f.Opts
	o.ExperimentID = ref.Exp
	if o.Artifacts == nil {
		return
	}
	batches, err := f.batches(ref.Exp)
	if err != nil {
		return
	}
	if ref.Batch < 0 || ref.Batch >= len(batches) || ref.Index < 0 || ref.Index >= len(batches[ref.Batch]) {
		return
	}
	c := &batches[ref.Batch][ref.Index]
	if c.run != nil || c.bench != ref.Bench || c.key != ref.Key {
		return
	}
	ro := o.runOpts()
	hash := cellHash(c, ro)
	if hash != ref.Hash {
		return
	}
	if o.Inject[c.bench+"/"+c.key] == "" {
		if _, ok := o.Artifacts.GetResult(hash); ok {
			// Memoized: Run will replay the result, no artifacts needed.
			return
		}
	}
	spec, err := program.SpecByName(c.bench)
	if err != nil {
		return
	}
	if _, err := o.Artifacts.Program(spec); err != nil {
		return
	}
	// Same budget expression as pfe.runSpec/tapeFor, so the prefetched tape
	// is the exact cache key the run will ask for.
	o.Artifacts.Tape(spec, uint64(ro.WarmupInsts+ro.MeasureInsts)+artifact.TapeSlack)
}

// killEpochs interprets a "kill[:n]" inject mode: the worker abandons the
// cell (vanishing mid-lease, no report) while the lease epoch is at most n.
// Epoch n+1 — the lease re-issued after the coordinator recovers the cell —
// runs clean, which is exactly the kill-and-recover drill.
func killEpochs(mode string) (int64, bool) {
	if mode == "kill" {
		return 1, true
	}
	if !strings.HasPrefix(mode, "kill:") {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimPrefix(mode, "kill:"), 10, 64)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// Run implements fabric.Runner.
func (f *FabricRunner) Run(ctx context.Context, lease fabric.Lease) (json.RawMessage, time.Duration, *fabric.CellError, bool) {
	ref := lease.Cell
	o := f.Opts
	o.ExperimentID = ref.Exp
	batches, err := f.batches(ref.Exp)
	if err != nil {
		return nil, 0, &fabric.CellError{Msg: err.Error(), Kind: "enumerate"}, false
	}
	if ref.Batch < 0 || ref.Batch >= len(batches) || ref.Index < 0 || ref.Index >= len(batches[ref.Batch]) {
		return nil, 0, &fabric.CellError{
			Msg:  fmt.Sprintf("experiments: no cell %s batch %d index %d on this worker", ref.Exp, ref.Batch, ref.Index),
			Kind: "no-such-cell",
		}, false
	}
	c := &batches[ref.Batch][ref.Index]
	if c.bench != ref.Bench || c.key != ref.Key {
		return nil, 0, &fabric.CellError{
			Msg: fmt.Sprintf("experiments: cell identity skew at %s[%d][%d]: lease says %s/%s, grid says %s/%s",
				ref.Exp, ref.Batch, ref.Index, ref.Bench, ref.Key, c.bench, c.key),
			Kind: "cell-mismatch",
		}, false
	}
	ro := o.runOpts()
	// The whole experiment grid is this cell's sweep roster: the first cell
	// to build a warm-state boundary on this worker warms every class of
	// the experiment in one replay and publishes the lot to the blob plane.
	for _, b := range batches {
		ro.WarmRoster = append(ro.WarmRoster, warmRosterOf(b)...)
	}
	hash := cellHash(c, ro)
	if hash != ref.Hash {
		// This worker would compute a different result than the coordinator
		// expects (skewed binary or budgets): refuse rather than contribute
		// a wrong row. The coordinator charges the attempt and retries —
		// possibly on a healthy worker.
		return nil, 0, &fabric.CellError{
			Msg: fmt.Sprintf("experiments: config hash skew on %s/%s: lease carries %s, this worker computes %s",
				c.bench, c.key, ref.Hash, hash),
			Kind: "config-skew",
		}, false
	}
	inject := o.Inject[c.bench+"/"+c.key]
	if n, ok := killEpochs(inject); ok {
		if lease.Epoch <= n {
			if f.OnKill != nil {
				f.OnKill()
			}
			return nil, 0, nil, true
		}
		inject = "" // kill budget spent: this epoch runs clean
	}
	if inject == "hold" && f.OnHold != nil {
		f.OnHold()
	}
	start := time.Now()
	memoize := o.Artifacts != nil && inject == ""
	if memoize {
		if v, _, ok := o.Artifacts.GetResultInfo(hash); ok {
			payload, merr := json.Marshal(toCellResult(v.(*pfe.Result)))
			if merr == nil {
				return payload, time.Since(start), nil, false
			}
		}
	}
	if inject == "stall" {
		ro.NoProgressCycles = 2
		if ro.FlightRecorder == 0 {
			ro.FlightRecorder = 256
		}
	}
	r, rerr, panicked, stack := safeRun(c, ro, inject)
	wall := time.Since(start)
	if rerr != nil {
		fe := &fabric.CellError{
			Msg: rerr.Error(), Kind: failureCause(rerr, panicked),
			Panic: panicked, Stack: stack,
		}
		var stall *sim.StallError
		if errors.As(rerr, &stall) && stall.Diag != nil {
			// The diagnostic bundle lands on the worker's disk; the path
			// travels so the coordinator's failure record points at it.
			path := o.dumpPath(c)
			if werr := stall.Diag.WriteFile(path); werr == nil {
				fe.DumpPath = path
			}
		}
		return nil, wall, fe, false
	}
	if memoize {
		o.Artifacts.PutResult(hash, r, memoResultBytes)
	}
	payload, merr := json.Marshal(toCellResult(r))
	if merr != nil {
		return nil, wall, &fabric.CellError{Msg: "experiments: encoding result: " + merr.Error(), Kind: "encode"}, false
	}
	return payload, wall, nil, false
}

// ParseInject parses the -inject spec: comma-separated entries, each either
// a cell fault
//
//	bench/key=mode          mode: panic | error | stall | hold | kill[:n]
//
// or a network chaos rule for the distributed fabric
//
//	net/endpoint=kind[:n]   endpoint: config | lease | heartbeat | report | blob
//	                        kind: drop | blackhole | dup | delay | corrupt
//
// Unknown modes and kinds are errors — a typo must not silently skip the
// fault drill it was meant to run.
func ParseInject(s string) (map[string]string, []fabric.Rule, error) {
	cells := map[string]string{}
	var rules []fabric.Rule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.HasPrefix(part, "net/") {
			r, err := fabric.ParseRule(strings.TrimPrefix(part, "net/"))
			if err != nil {
				return nil, nil, fmt.Errorf("-inject %q: %w", part, err)
			}
			rules = append(rules, r)
			continue
		}
		target, mode, ok := strings.Cut(part, "=")
		if !ok || !strings.Contains(target, "/") {
			return nil, nil, fmt.Errorf("-inject %q: want bench/key=mode or net/endpoint=kind[:n]", part)
		}
		if _, isKill := killEpochs(mode); !isKill {
			switch mode {
			case "panic", "error", "stall", "hold":
			default:
				return nil, nil, fmt.Errorf("-inject %q: mode must be panic, error, stall, hold or kill[:n]", part)
			}
		}
		cells[target] = mode
	}
	if len(cells) == 0 && len(rules) == 0 {
		return nil, nil, fmt.Errorf("-inject %q: no injections parsed", s)
	}
	return cells, rules, nil
}
