package pfe

import (
	"fmt"
	"math"
	"time"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/sim"
	"github.com/parallel-frontend/pfe/internal/stats"
	"github.com/parallel-frontend/pfe/internal/tcache"
)

// SampleSpec configures systematic sampling: a detailed window of Unit
// instructions is simulated cycle-accurately every Period instructions of
// the measured stream, preceded by Warmup instructions of detailed warmup
// (branch predictor, fragment predictor and caches warmed, back-end
// drained); the gaps between windows are skipped by seeking the oracle tape
// rather than simulated. The per-window IPCs form the sampled estimate and
// its 95% confidence interval (Result.Sampling).
type SampleSpec struct {
	Unit   int64 // detailed instructions measured per window
	Period int64 // instructions between consecutive window starts
	Warmup int64 // detailed warmup instructions before each window
}

// DefaultSampleSpec returns the tuned sampling parameters: 2 K-instruction
// windows every 20 K instructions, each preceded by 3 K instructions of
// detailed warmup. On the default 300 K-instruction measurement that is 15
// windows covering a quarter of the stream in detail — the sparsest plan
// that keeps every benchmark's error inside its own 95% confidence interval
// (sparser periods were probed and fail the gate on individual benchmarks);
// EXPERIMENTS.md records the measured sampled-vs-full error per benchmark
// under these parameters.
func DefaultSampleSpec() SampleSpec {
	return SampleSpec{Unit: 2_000, Period: 20_000, Warmup: 3_000}
}

func (s SampleSpec) validate() error {
	if s.Unit <= 0 {
		return fmt.Errorf("pfe: sample unit must be positive (got %d)", s.Unit)
	}
	if s.Period <= 0 {
		return fmt.Errorf("pfe: sample period must be positive (got %d)", s.Period)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("pfe: sample warmup must be non-negative (got %d)", s.Warmup)
	}
	return nil
}

// measuredSpan returns how many instructions of the measured stream are
// actually available: the configured budget, clamped to the recording when
// the program halts before the budget is reached.
func measuredSpan(tape *artifact.Tape, opts RunOptions) (int64, error) {
	total := opts.MeasureInsts
	if tape.Halted() {
		avail := int64(tape.Len()) - opts.WarmupInsts
		if avail <= 0 {
			return 0, fmt.Errorf("pfe: program halts after %d instructions, before the %d-instruction warmup completes",
				tape.Len(), opts.WarmupInsts)
		}
		if avail < total {
			total = avail
		}
	}
	return total, nil
}

// warmer functionally replays the skipped stream through the long-lived
// machine state a detailed window inherits from its prefix: every
// instruction touches the L1I, memory operations touch the L1D, and the
// fragment-granular structures (fragment predictor, live-out predictor,
// trace cache) are trained by emulating the fetch stream's true-path
// prediction loop. That loop is exactly reconstructible without cycle
// simulation: the stream only updates the fragment predictor on the true
// path, with an anchor and history evolution that depend solely on the
// dynamic stream and the predictor's own answers — a divergence re-anchors
// fragment selection at the first mismatched instruction, which is why
// naive clean splitting trains a measurably different table population than
// the machine would. Reconstructing this state at tape-replay cost instead
// of cycle-simulation cost is the piece of SMARTS that keeps systematic
// sampling unbiased: the pipeline and in-flight window warm quickly inside
// the detailed warmup, but caches and predictor tables reach back much
// further than any affordable detailed region.
//
// One warmer trains one or more warm classes in the same replay (union
// warming, see warmstate.go): a run's own warmer is the one-class case, a
// hierarchy plus one anchor. There is one training loop for both.
type warmer struct {
	rd      *artifact.Reader
	prog    *program.Program
	hiers   []*warmHier
	anchors []*warmAnchor
	members []warmMember

	// look is the lookahead every anchor trains from: the stream since the
	// last resync, batch-decoded by the reader's Fill warmChunk
	// instructions at a time. Each anchor trains from its own head index;
	// the entries below the lowest head are dropped once per chunk. ea is
	// the effective-address scratch of the chunk being decoded.
	look []frag.Dyn
	ea   []uint64
}

// warmChunk is how many instructions the warmer decodes per batch.
const warmChunk = 1024

// warmHier is one distinct memory hierarchy under training, with its own
// L1I block-elision cursor: straight-line code stays in one block for many
// instructions, so warming touches the L1I once per block transition rather
// than once per instruction (the resident-block set is identical, only
// redundant LRU refreshes of the just-touched way are elided).
type warmHier struct {
	key      string
	hier     *mem.Hierarchy
	lastIBlk uint64
	iblkMask uint64
}

// touch feeds one decoded chunk through the hierarchy in stream order.
func (h *warmHier) touch(look []frag.Dyn, ea []uint64) {
	for i := range look {
		d := &look[i]
		if blk := d.PC & h.iblkMask; blk != h.lastIBlk {
			h.hier.L1I.Access(d.PC, false, 0)
			h.lastIBlk = blk
		}
		if d.Inst.IsMem() {
			h.hier.L1D.Access(ea[i], d.Inst.IsStore(), 0)
		}
	}
}

// warmLO / warmTC are distinct live-out predictor and trace cache instances
// within an anchor group.
type warmLO struct {
	key string
	lo  *rename.LiveOutPredictor
}

type warmTC struct {
	size int
	tc   *tcache.Cache
}

// warmAnchor is one true-path prediction loop, mirroring core.Stream: a
// fragment predictor, the path history, and a head index into the warmer's
// lookahead — plus the live-out predictors and trace caches trained from
// its fetched-fragment sequence. Between training steps the stream's
// speculative and retirement histories are equal (a correct fragment
// pushes the same ID onto both; a divergence restores the speculative one
// from the retirement one), so the loop keeps one history; warm states
// still record it as both. Distinct predictor configs or fragment
// heuristics produce distinct fetched sequences, hence distinct anchors.
type warmAnchor struct {
	key  string
	pred *bpred.TracePredictor
	hist bpred.History
	heur frag.Heuristics
	tab  *core.FragTable
	los  []*warmLO
	tcs  []*warmTC
	head int
}

// warmMember is one distinct warm class of the warmer: the components its
// snapshot is assembled from.
type warmMember struct {
	class  string
	hier   *warmHier
	anchor *warmAnchor
	lo     *rename.LiveOutPredictor // nil: class has no live-out predictor
	tc     *tcache.Cache            // nil: class has no trace cache
}

// newWarmer builds the functional warming state for a machine roster,
// deduplicated into warm classes and shared components: a fresh hierarchy
// per distinct memory config, one prediction loop per distinct (predictor,
// heuristics) pair, and the live-out predictors and trace caches the
// classes actually have. Component sharing is by configuration — each
// component's training is independent of which classes reference it.
// Anchors whose heuristics match tab build their fragments in it; others
// get a table of their own. The first member's structures are the ones
// config hands to a detailed window.
func newWarmer(rd *artifact.Reader, p *program.Program, machines []Machine, tab *core.FragTable) *warmer {
	w := &warmer{
		rd:   rd,
		prog: p,
		look: make([]frag.Dyn, 0, warmChunk+frag.AbsMaxLen),
		ea:   make([]uint64, warmChunk+frag.AbsMaxLen),
	}
	classes := map[string]bool{}
	for _, m := range machines {
		class := warmClassHash(m)
		if classes[class] {
			continue
		}
		classes[class] = true

		hkey := fmt.Sprintf("%+v", m.memory)
		var h *warmHier
		for _, c := range w.hiers {
			if c.key == hkey {
				h = c
				break
			}
		}
		if h == nil {
			hier := mem.NewHierarchy(m.memory)
			h = &warmHier{
				key:      hkey,
				hier:     hier,
				iblkMask: ^uint64(hier.L1I.BlockBytes() - 1),
				lastIBlk: ^uint64(0),
			}
			w.hiers = append(w.hiers, h)
		}

		heur := m.frontEnd.FragHeuristics
		akey := fmt.Sprintf("%+v|%+v", m.frontEnd.Predictor, heur)
		var a *warmAnchor
		for _, c := range w.anchors {
			if c.key == akey {
				a = c
				break
			}
		}
		if a == nil {
			a = &warmAnchor{key: akey, pred: bpred.New(m.frontEnd.Predictor), heur: heur}
			for _, c := range w.anchors {
				if c.heur == heur {
					a.tab = c.tab
				}
			}
			if a.tab == nil {
				a.tab = tab
				if tab == nil || !tab.For(p, heur) {
					a.tab = core.NewFragTable(p, heur)
				}
			}
			w.anchors = append(w.anchors, a)
		}

		mb := warmMember{class: class, hier: h, anchor: a}
		if m.frontEnd.Rename == core.RenameParallel {
			lkey := fmt.Sprintf("%+v", m.frontEnd.LiveOut)
			var wl *warmLO
			for _, c := range a.los {
				if c.key == lkey {
					wl = c
					break
				}
			}
			if wl == nil {
				wl = &warmLO{key: lkey, lo: rename.NewLiveOutPredictor(m.frontEnd.LiveOut)}
				a.los = append(a.los, wl)
			}
			mb.lo = wl.lo
		}
		if m.frontEnd.Fetch == core.FetchTraceCache {
			var wt *warmTC
			for _, c := range a.tcs {
				if c.size == m.frontEnd.TraceCache {
					wt = c
					break
				}
			}
			if wt == nil {
				wt = &warmTC{size: m.frontEnd.TraceCache, tc: tcache.New(tcache.Config{SizeBytes: m.frontEnd.TraceCache, Ways: 2})}
				a.tcs = append(a.tcs, wt)
			}
			mb.tc = wt.tc
		}
		w.members = append(w.members, mb)
	}
	return w
}

// config installs the first member's warmed structures, and its fragment
// table, into a window's simulator config.
func (w *warmer) config(cfg *sim.Config) {
	mb := &w.members[0]
	cfg.Hier = mb.hier.hier
	cfg.Pred = mb.anchor.pred
	cfg.LiveOut = mb.lo
	cfg.TC = mb.tc
	cfg.FragTable = mb.anchor.tab
}

// resetCacheStats clears the first member's cache statistics: each window's
// miss rates describe its own detailed traffic, not the warming replay's.
func (w *warmer) resetCacheStats() {
	h := w.members[0].hier.hier
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
}

// warmTo replays the stream up to (but not including) sequence index upto,
// leaving the reader exactly there (or at the halt point). Each chunk
// touches every hierarchy once per instruction, in stream order; then
// every anchor trains on the fragments at the front of its lookahead. An
// anchor trains only with at least frag.AbsMaxLen instructions ahead of
// its head, so every split and match decision is content-determined —
// independent of how the stream was cut into chunks. A partial tail
// fragment at the gap boundary is left for the detailed warmup to handle.
func (w *warmer) warmTo(upto uint64) error {
	for w.rd.Pos() < upto && !w.rd.Halted() {
		w.compact()
		have := len(w.look)
		k := int(min(uint64(cap(w.look)-have), upto-w.rd.Pos()))
		n, err := w.rd.Fill(w.look[have:have+k], w.ea[:k])
		if err != nil {
			return err
		}
		w.look = w.look[:have+n]
		for _, h := range w.hiers {
			h.touch(w.look[have:], w.ea[:n])
		}
		for _, a := range w.anchors {
			for len(w.look)-a.head >= frag.AbsMaxLen {
				a.head += a.train(w.look[a.head:])
			}
		}
	}
	return nil
}

// compact drops the lookahead every anchor has trained past.
func (w *warmer) compact() {
	lo := len(w.look)
	for _, a := range w.anchors {
		lo = min(lo, a.head)
	}
	w.look = w.look[:copy(w.look, w.look[lo:])]
	for _, a := range w.anchors {
		a.head -= lo
	}
}

// resync drops the pending lookahead after a discontinuity (a detailed
// window consumed the stream between two warming phases): stitching
// instructions from either side of the window into one fragment would train
// the predictor on boundaries that never occur.
func (w *warmer) resync() {
	w.look = w.look[:0]
	for _, a := range w.anchors {
		a.head = 0
	}
}

// train performs one iteration of the stream's true-path prediction loop
// against the front of the lookahead and returns how far the anchor
// advances: predict the next fragment from the history and train the
// predictor with the true one, materialize the predicted fragment, compare
// it against the true stream, and advance the anchor — by the true fragment
// on a correct prediction, to the first mismatched instruction on a
// divergence (the stream's redirect re-anchor). Either way the history
// takes the true fragment, as the stream's retirement history does. The
// fetched fragment also trains the live-out predictors and fills the trace
// caches, as renaming and fetch would.
func (a *warmAnchor) train(look []frag.Dyn) int {
	trueLen, trueID := a.heur.Split(look)
	if trueLen <= 0 {
		return len(look)
	}
	pred := a.pred.PredictAndUpdate(&a.hist, trueID)
	id := frag.ID{StartPC: look[0].PC}
	if pred.Valid && pred.ID.StartPC == look[0].PC {
		id = pred.ID
	}
	e := a.tab.Get(id)
	f := e.Frag
	m := 0
	for ; m < f.Len() && m < len(look); m++ {
		if look[m].PC != f.PCs[m] {
			break
		}
	}
	a.pred.Push(&a.hist, trueID.Key())
	if f.Len() > 0 {
		for _, l := range a.los {
			l.lo.Train(f.ID, e.Writes.LiveOuts)
		}
		for _, t := range a.tcs {
			t.tc.Fill(f)
		}
	}
	if m == f.Len() && f.ID == trueID {
		return trueLen
	}
	return max(m, 1) // m > 0: the start PC is forced correct
}

// runSampled is the systematic-sampling run mode: detailed windows planned
// by stats.SampleWindows over the measured stream, with the gaps replayed
// through the cache model (functional warming) instead of simulated. The
// estimator works in CPI space — over equal-instruction windows the mean of
// per-window CPIs is the unbiased estimator of whole-run CPI — and the
// reported IPC statistics are its delta-method transform.
func runSampled(pspec program.Spec, p *program.Program, tape *artifact.Tape, m Machine, opts RunOptions) (*Result, error) {
	spec := *opts.Sample
	if err := spec.validate(); err != nil {
		return nil, err
	}
	total, err := measuredSpan(tape, opts)
	if err != nil {
		return nil, err
	}
	windows := stats.SampleWindows(uint64(total), uint64(spec.Unit), uint64(spec.Period))
	if len(windows) == 0 {
		return nil, fmt.Errorf("pfe: sampling plan is empty (measure %d, unit %d)", total, spec.Unit)
	}

	// One reader, one set of warmed structures (hierarchy, fragment
	// predictor, live-out predictor, trace cache — whichever the machine
	// has) and one fragment table live across the whole run: the reader
	// alternates between feeding detailed windows and functionally warming
	// the gaps, so the long-lived state carries the full stream history
	// into every window, and no window rebuilds a fragment the warmer or an
	// earlier window already built.
	rd := tape.NewReader()
	wm := newWarmer(rd, p, []Machine{m}, core.NewFragTable(p, m.frontEnd.FragHeuristics))
	// warmed is the run's functional-warming host time, timed once per gap
	// (the "warm" self-profile stage).
	var warmed time.Duration
	timeWarm := func(start time.Time) {
		d := time.Since(start)
		warmed += d
		if opts.Obs != nil {
			opts.Obs.Prof.AddTotal(obs.StageWarm, d)
		}
	}
	parts := make([]*sim.Result, 0, len(windows))
	ipcs := make([]float64, 0, len(windows))
	cpis := make([]float64, 0, len(windows))
	var detailed, gapInsts int64
	// The first window's prefix — the run warmup minus the detailed-warmup
	// region — is by far the longest gap, and it is identical for every cell
	// sharing the stream and the warm-relevant machine class. Advance through
	// the warm-state artifact tier: restored when any earlier cell (or any
	// worker in the fleet) snapshotted this boundary, replayed and published
	// otherwise.
	{
		absStart := uint64(opts.WarmupInsts) + windows[0].Start
		warm := uint64(spec.Warmup)
		if warm > absStart {
			warm = absStart
		}
		if boundary := absStart - warm; boundary > 0 {
			gs := opts.Spans.Phase(opts.SpanParent, "gap-warm")
			gs.Int("gap_insts", int64(boundary))
			start := time.Now()
			info, err := warmThrough(wm, pspec, m, boundary, opts)
			timeWarm(start)
			annotArtifact(gs, info)
			gs.End()
			if err != nil {
				return nil, err
			}
			gapInsts += int64(boundary)
		}
	}
	for _, w := range windows {
		absStart := uint64(opts.WarmupInsts) + w.Start
		warm := uint64(spec.Warmup)
		if warm > absStart {
			warm = absStart
		}
		target := absStart - warm
		wm.resync() // the previous window consumed the stream in between
		if rd.Pos() == target {
			// Already exactly at the boundary (the hoisted first-window
			// fast-forward above): nothing to warm, nothing to seek.
		} else if rd.Pos() < target {
			// Warm the caches and predictor through the gap. The reader
			// then sits exactly at the detailed-warmup boundary.
			gap := int64(target - rd.Pos())
			gs := opts.Spans.Phase(opts.SpanParent, "gap-warm")
			gs.Int("gap_insts", gap)
			start := time.Now()
			err := wm.warmTo(target)
			timeWarm(start)
			gs.End()
			if err != nil {
				return nil, err
			}
			gapInsts += gap
		} else {
			// The previous window's fetch-ahead overran this window's
			// warmup start (dense plans); the overrun region already
			// touched the caches in detail, so just reposition.
			if err := rd.Seek(target); err != nil {
				return nil, err
			}
		}
		wm.resetCacheStats()
		cfg := sim.Config{
			FrontEnd:         m.frontEnd,
			Backend:          m.backend,
			Mem:              m.memory,
			WarmupInsts:      int64(warm),
			MeasureInsts:     int64(w.Len),
			Obs:              opts.Obs,
			NoProgressCycles: opts.NoProgressCycles,
			FlightRecorder:   opts.FlightRecorder,
			SelfProfile:      opts.SelfProfile,
			Oracle:           rd,
		}
		wm.config(&cfg)
		ws := opts.Spans.Phase(opts.SpanParent, "window")
		ws.Int("window", int64(len(parts)))
		ws.Int("start_inst", int64(absStart))
		wr, err := sim.Run(p, cfg)
		if err != nil {
			ws.Str("error", firstLine(err.Error()))
			ws.End()
			return nil, fmt.Errorf("pfe: sampling window at %d: %w", absStart, err)
		}
		ws.Float("ipc", wr.IPC)
		ws.End()
		parts = append(parts, wr)
		ipcs = append(ipcs, wr.IPC)
		cpis = append(cpis, float64(wr.Cycles)/float64(wr.Committed))
		detailed += int64(warm) + wr.Committed
	}

	sum := stats.Summarize(cpis)
	ipcMean := 1 / sum.Mean
	scale := ipcMean * ipcMean // d(1/x)/dx magnitude at the mean
	res := newResult(aggregateSim(parts))
	if opts.SelfProfile {
		if res.StageSeconds == nil {
			res.StageSeconds = map[string]float64{}
		}
		res.StageSeconds[obs.StageWarm.String()] = warmed.Seconds()
	}
	res.IPC = ipcMean
	res.SampledIPC = ipcMean
	skipped := opts.WarmupInsts + total - detailed
	if skipped < 0 {
		skipped = 0
	}
	res.Sampling = &SamplingInfo{
		Unit:          spec.Unit,
		Period:        spec.Period,
		Warmup:        spec.Warmup,
		Windows:       len(windows),
		IPCMean:       ipcMean,
		IPCStdDev:     sum.StdDev * scale,
		IPCStdErr:     sum.StdErr * scale,
		IPCCI95:       sum.CI95 * scale,
		DetailedInsts: detailed,
		SkippedInsts:  skipped,
		WindowIPCs:    ipcs,
	}
	ci := sum.CI95 * scale
	if ps := opts.Spans.SpanFor(opts.SpanParent); ps.OK() {
		ps.Int("sample_windows", int64(len(windows)))
		if !math.IsInf(ci, 0) {
			ps.Float("sample_ci95", ci)
		}
	}
	if opts.Obs != nil {
		opts.Obs.SampleWindows.Add(int64(len(windows)))
		opts.Obs.SampleGapInsts.Add(gapInsts)
		opts.Obs.SampleFallback.Add(rd.FallbackSteps())
		if !math.IsInf(ci, 0) && !math.IsNaN(ci) {
			opts.Obs.SampleCI.Observe(ci)
		}
	}
	return res, nil
}

// aggregateSim combines per-window measurements into one logical run:
// counters and self-profile stage seconds sum, rates are committed-weighted
// means, histograms merge. A single window passes through untouched so a
// degenerate sampled run stays bit-identical to the serial one.
func aggregateSim(parts []*sim.Result) *sim.Result {
	if len(parts) == 1 {
		return parts[0]
	}
	agg := &sim.Result{
		Bench:    parts[0].Bench,
		Config:   parts[0].Config,
		Pipeline: metrics.NewPipeline(),
	}
	var wsum float64
	for _, r := range parts {
		agg.Cycles += r.Cycles
		agg.Committed += r.Committed
		agg.FrontEnd.Add(r.FrontEnd)
		agg.Pool.Add(r.Pool)
		if r.Pipeline != nil {
			agg.Pipeline.Merge(r.Pipeline)
		}
		for stage, sec := range r.StageSeconds {
			if agg.StageSeconds == nil {
				agg.StageSeconds = make(map[string]float64, len(r.StageSeconds))
			}
			agg.StageSeconds[stage] += sec
		}
		w := float64(r.Committed)
		wsum += w
		agg.FragPredAccuracy += w * r.FragPredAccuracy
		agg.L1IMissRate += w * r.L1IMissRate
		agg.L1DMissRate += w * r.L1DMissRate
		agg.TCHitRate += w * r.TCHitRate
		agg.BufferReuseRate += w * r.BufferReuseRate
	}
	if wsum > 0 {
		agg.FragPredAccuracy /= wsum
		agg.L1IMissRate /= wsum
		agg.L1DMissRate /= wsum
		agg.TCHitRate /= wsum
		agg.BufferReuseRate /= wsum
	}
	if agg.Cycles > 0 {
		agg.IPC = float64(agg.Committed) / float64(agg.Cycles)
	}
	return agg
}
