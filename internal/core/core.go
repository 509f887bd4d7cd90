// Package core implements the paper's contribution: the front-ends. Four
// mechanisms are modelled behind one interface, all driven by the same
// fragment predictor and the same selection heuristics so the comparison is
// exactly the paper's:
//
//	W16  — a 16-wide sequential fetch unit (§5: the baseline): fetches up
//	       to 16 sequential instructions per cycle, stopping at taken
//	       branches and cache-line boundaries, with a monolithic renamer.
//	TC   — a trace cache (§5: TC/TC2x): supplies a whole trace per cycle
//	       on a hit; misses fall back to the W16 mechanism and fill.
//	PF   — parallel fetch (§3): multiple narrow sequencers fetch multiple
//	       predicted fragments concurrently through a banked instruction
//	       cache into fragment buffers (with reuse), but rename remains
//	       sequential — the serialization §3.4 identifies.
//	PR   — PF plus the parallel two-phase renamer with live-out
//	       prediction (§4). The parallel renamer also composes with the
//	       trace-cache fetch engine (§4.4), which is Fig 6's experiment.
//
// A front-end is a fetch engine composed with a rename stage; both
// dimensions are selectable independently, mirroring §4.4's observation that
// parallel renaming only requires fragment buffers, not parallel fetch.
package core

import (
	"fmt"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/obs"
	"github.com/parallel-frontend/pfe/internal/rename"
	"github.com/parallel-frontend/pfe/internal/tcache"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// FetchKind selects the fetch engine.
type FetchKind int

const (
	FetchSequential FetchKind = iota // W16-style wide sequential fetch
	FetchTraceCache                  // trace cache with sequential fallback
	FetchParallel                    // multiple sequencers + fragment buffers
)

// String names the fetch kind.
func (k FetchKind) String() string {
	switch k {
	case FetchSequential:
		return "sequential"
	case FetchTraceCache:
		return "trace-cache"
	case FetchParallel:
		return "parallel"
	}
	return fmt.Sprintf("fetch(%d)", int(k))
}

// RenameKind selects the rename stage.
type RenameKind int

const (
	RenameSequential RenameKind = iota // monolithic in-order renamer
	RenameParallel                     // multiple renamers + live-out prediction
	// RenameDelayed is §4's "first solution" (Multiscalar-style):
	// multiple renamers with no live-out prediction; instructions whose
	// cross-fragment source mappings are not yet available are delayed.
	RenameDelayed
)

// String names the rename kind.
func (k RenameKind) String() string {
	switch k {
	case RenameSequential:
		return "sequential"
	case RenameParallel:
		return "parallel"
	case RenameDelayed:
		return "delayed"
	}
	return fmt.Sprintf("rename(%d)", int(k))
}

// Config describes one front-end. Presets for the paper's configurations
// live in the public pfe package.
type Config struct {
	Name   string
	Fetch  FetchKind
	Rename RenameKind

	// FetchWidth is the aggregate fetch width (16 in every paper config).
	FetchWidth int

	// TraceCache sizes the trace cache (FetchTraceCache only).
	TraceCache int // bytes

	// Sequencers and SeqWidth shape the parallel fetch unit
	// (FetchParallel only): PF-2x8w is 2×8, PF-4x4w is 4×4.
	Sequencers int
	SeqWidth   int

	// FragBuffers is the number of fragment buffers (Table 1: 16).
	FragBuffers int

	// SwitchOnMiss enables §2.2's optional sequencer policy: on an
	// instruction-cache miss the sequencer parks its fragment and
	// fetches a different one while the fill completes.
	SwitchOnMiss bool

	// Renamers and RenWidth shape the parallel rename unit
	// (RenameParallel only): PR-2x8w is 2×8, PR-4x4w is 4×4.
	Renamers int
	RenWidth int

	// RenameWidth is the monolithic renamer's width (RenameSequential).
	RenameWidth int

	// FragHeuristics parameterizes fragment selection (zero value =
	// the paper's 16-instruction, cutoff-8 heuristics).
	FragHeuristics frag.Heuristics

	// Predictor configures the shared fragment/trace predictor.
	Predictor bpred.Config

	// LiveOut configures the live-out predictor (RenameParallel only).
	LiveOut rename.LiveOutPredictorConfig

	// RedirectBubble is the number of dead cycles between a resolved
	// misprediction and the first new prediction (front-end pipeline
	// refill).
	RedirectBubble int

	// Sink, if non-nil, receives a typed trace event for every pipeline
	// occurrence in this front-end (fetch deliveries, rename phases,
	// live-out squashes; see internal/trace). A nil sink costs one
	// pointer check per emit site.
	Sink trace.Sink

	// Metrics, if non-nil, accumulates the pipeline histograms observed
	// at fragment granularity (buffer residency, squash depth). sim.Run
	// always attaches one.
	Metrics *metrics.Pipeline

	// Prof, if non-nil, attributes the simulator's own wall time to
	// pipeline stages via sampled timers (see internal/obs): fetch and
	// rename at the Unit level, plus the parallel renamer's phase-1/
	// phase-2 split. A nil profiler costs one branch per cycle.
	Prof *obs.StageProf

	// LiveOutPred, if non-nil, is an externally built live-out predictor
	// used instead of constructing one from LiveOut (RenameParallel only)
	// — the seam through which sampled and time-parallel runs carry
	// functionally trained predictor state into a detailed window. It must
	// not be shared with a concurrent run.
	LiveOutPred *rename.LiveOutPredictor

	// TC, if non-nil, is an externally built trace cache used instead of
	// constructing one from TraceCache (FetchTraceCache only) — the same
	// warmed-state seam as LiveOutPred.
	TC *tcache.Cache
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0:
		return fmt.Errorf("core: %s: FetchWidth must be positive", c.Name)
	case c.Fetch == FetchParallel && (c.Sequencers <= 0 || c.SeqWidth <= 0):
		return fmt.Errorf("core: %s: parallel fetch needs sequencers", c.Name)
	case c.Fetch == FetchParallel && c.FragBuffers <= 0:
		return fmt.Errorf("core: %s: parallel fetch needs fragment buffers", c.Name)
	case (c.Rename == RenameParallel || c.Rename == RenameDelayed) && (c.Renamers <= 0 || c.RenWidth <= 0):
		return fmt.Errorf("core: %s: parallel rename needs renamers", c.Name)
	case c.Rename == RenameSequential && c.RenameWidth <= 0:
		return fmt.Errorf("core: %s: sequential rename needs a width", c.Name)
	case c.Fetch == FetchTraceCache && c.TraceCache <= 0:
		return fmt.Errorf("core: %s: trace-cache fetch needs a size", c.Name)
	}
	return nil
}

// Stats is the front-end side of the measurement contract: the counters
// behind Fig 4 (fetch slots), Fig 5 (fetch/rename rates) and the §3.2/§3.3
// claims (buffer reuse, fragment construction).
type Stats struct {
	Cycles uint64

	// Fetch-slot accounting (§5.1). Slots accumulate Width per active
	// sequencer cycle; FetchedFromCache counts instructions delivered
	// through the instruction-cache path (or trace-cache hit) against
	// those slots.
	FetchSlots       int64
	FetchedFromCache int64

	// Fetched counts every instruction delivered by the fetch unit
	// (including buffer reuse), wrong-path included — Fig 5's fetch rate.
	Fetched int64

	// Renamed counts instructions leaving the rename stage, wrong-path
	// included — Fig 5's rename rate.
	Renamed int64

	// Fragment buffer behaviour.
	FragAllocs           int64
	FragReuses           int64
	FragCompleteAtRename int64 // fragments already complete when rename first read them
	FragReadByRename     int64

	// Live-out predictor behaviour (parallel rename only).
	LiveOutPredicted  int64
	LiveOutMispredict int64
	LiveOutMisses     int64

	// BankConflicts counts sequencer-cycles lost entirely to
	// instruction-cache bank conflicts; ConflictTrunc counts fetch groups
	// truncated by a conflict mid-group.
	BankConflicts int64
	ConflictTrunc int64

	// Redirects taken by this front-end.
	Redirects int64

	// InstrsRenamedBeforeSource counts instructions renamed before the
	// producer of at least one of their sources (§5.2's 4–12% claim).
	InstrsRenamedBeforeSource int64

	// DelayedForMapping counts rename slots lost waiting for an older
	// fragment's register mapping (RenameDelayed only).
	DelayedForMapping int64
}

// Add accumulates o's counters into s — the piecewise aggregation behind
// sampled runs, where one logical run's statistics are the sum of its
// windows'.
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.FetchSlots += o.FetchSlots
	s.FetchedFromCache += o.FetchedFromCache
	s.Fetched += o.Fetched
	s.Renamed += o.Renamed
	s.FragAllocs += o.FragAllocs
	s.FragReuses += o.FragReuses
	s.FragCompleteAtRename += o.FragCompleteAtRename
	s.FragReadByRename += o.FragReadByRename
	s.LiveOutPredicted += o.LiveOutPredicted
	s.LiveOutMispredict += o.LiveOutMispredict
	s.LiveOutMisses += o.LiveOutMisses
	s.BankConflicts += o.BankConflicts
	s.ConflictTrunc += o.ConflictTrunc
	s.Redirects += o.Redirects
	s.InstrsRenamedBeforeSource += o.InstrsRenamedBeforeSource
	s.DelayedForMapping += o.DelayedForMapping
}

// SlotUtilization returns FetchedFromCache/FetchSlots (Fig 4).
func (s *Stats) SlotUtilization() float64 {
	if s.FetchSlots == 0 {
		return 0
	}
	return float64(s.FetchedFromCache) / float64(s.FetchSlots)
}

// FetchRate and RenameRate return per-cycle rates (Fig 5).
func (s *Stats) FetchRate() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Fetched) / float64(s.Cycles)
}

func (s *Stats) RenameRate() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Renamed) / float64(s.Cycles)
}

// ReuseRate returns the fraction of fragment allocations satisfied by
// buffer reuse (§3.2: 20–70%).
func (s *Stats) ReuseRate() float64 {
	if s.FragAllocs == 0 {
		return 0
	}
	return float64(s.FragReuses) / float64(s.FragAllocs)
}

// ConstructedBeforeRename returns the fraction of fragments fully fetched
// by the time rename first read them (§3.3: 84%).
func (s *Stats) ConstructedBeforeRename() float64 {
	if s.FragReadByRename == 0 {
		return 0
	}
	return float64(s.FragCompleteAtRename) / float64(s.FragReadByRename)
}

// FrontEnd is one fetch+rename mechanism coupled to a back-end.
type FrontEnd interface {
	// Cycle advances the front-end one cycle: fetch, rename, and insert
	// renamed ops into the back-end window.
	Cycle(now uint64)

	// Redirect squashes all speculative front-end state and restarts
	// fetch on the corrected path (the stream has already been rewound).
	Redirect(now uint64)

	// Stats exposes the measurement counters.
	Stats() *Stats

	// Drained reports whether the front-end holds no unrenamed
	// instructions (used at end of program).
	Drained() bool
}

// Backend is the narrow view of the execution engine the front-ends need.
type Backend interface {
	FreeSlots() int
	Insert(op *backend.Op)
}

// ICache bundles the instruction-cache path handed to fetch engines.
type ICache struct {
	L1I   *mem.Cache
	Banks int
}

// IBankOf returns the bank serving addr.
func (ic *ICache) IBankOf(addr uint64) int {
	if ic.Banks <= 1 {
		return 0
	}
	return int(ic.L1I.BlockOf(addr)) & (ic.Banks - 1)
}
