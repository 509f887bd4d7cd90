package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stage names one wall-time attribution bucket of the simulator itself
// (host-side time, not simulated cycles).
type Stage int

const (
	// StageFetch is the fetch engine's share of a front-end cycle.
	StageFetch Stage = iota
	// StageRename is the whole rename stage (admission, renaming, queue
	// bookkeeping). For parallel-rename front-ends, StageRenameP1 and
	// StageRenameP2 additionally break this down; they are a subset of
	// StageRename, not additional time.
	StageRename
	// StageRenameP1 is the parallel renamer's serial allocation phase
	// (live-out prediction + window reservation).
	StageRenameP1
	// StageRenameP2 is the parallel renamer's concurrent renaming phase.
	StageRenameP2
	// StageBackend is the out-of-order back-end (wakeup, execute, commit).
	StageBackend
	// StageFetchOracle is the fragment stream's share of fetch (Stream.Next:
	// prediction, oracle decode, fragment materialization). It is a subset
	// of StageFetch, as the rename phases are of StageRename.
	StageFetchOracle
	// StageWarm is a sampled run's functional warming: gap replay and warm
	// pack build or restore, timed in full once per gap rather than on
	// sampled cycles.
	StageWarm

	numStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	switch s {
	case StageFetch:
		return "fetch"
	case StageRename:
		return "rename"
	case StageRenameP1:
		return "rename_phase1"
	case StageRenameP2:
		return "rename_phase2"
	case StageBackend:
		return "backend"
	case StageFetchOracle:
		return "fetch_oracle"
	case StageWarm:
		return "warm"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stages lists every attribution bucket.
func Stages() []Stage {
	return []Stage{StageFetch, StageRename, StageRenameP1, StageRenameP2, StageBackend, StageFetchOracle, StageWarm}
}

// StageProf attributes the simulator's own wall time to pipeline stages via
// cheap sampled timers: one cycle in every SampleEvery is timed with
// time.Now around each stage, and the measured nanoseconds are scaled back
// up by the sampling factor when reported. On unsampled cycles the cost is
// a single branch; a nil *StageProf is valid and always reports unsampled.
//
// One StageProf may be shared by concurrent simulations (all updates are
// atomic); the result is then the aggregate attribution across them. Each
// run samples through its own Phased view, so that the cycles it times do
// not always include its first: a run's first cycles (fetch filling an
// empty queue) are unlike its steady state, and short runs — the windows of
// a sampled run — would otherwise weight them 64-fold.
type StageProf struct {
	mask  uint64
	phase uint64 // cycles sampled satisfy (cycle+phase)&mask == 0
	every int64
	c     *stageCounters // shared with every Phased view
}

type stageCounters struct {
	nanos [numStages]Counter // sampled time, scaled by every when reported
	total [numStages]Counter // time measured in full (AddTotal)
}

// DefaultSampleEvery is the default sampling period in cycles.
const DefaultSampleEvery = 64

// NewStageProf returns a profiler sampling one cycle in every `every`
// (rounded up to a power of two; <=0 means DefaultSampleEvery).
func NewStageProf(every int) *StageProf {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	pow := 1
	for pow < every {
		pow <<= 1
	}
	return &StageProf{mask: uint64(pow - 1), every: int64(pow), c: new(stageCounters)}
}

// Phased returns a view of p for one run: it feeds p's counters but samples
// the cycles at a phase offset drawn deterministically from seed, which
// should tell the run apart from others (e.g. its benchmark, machine and
// start position in the stream). Safe on nil.
func (p *StageProf) Phased(seed uint64) *StageProf {
	if p == nil {
		return nil
	}
	v := *p
	// splitmix64's finalizer: nearby seeds land on unrelated phases.
	seed += 0x9e3779b97f4a7c15
	seed = (seed ^ seed>>30) * 0xbf58476d1ce4e5b9
	seed = (seed ^ seed>>27) * 0x94d049bb133111eb
	v.phase = (seed ^ seed>>31) & p.mask
	return &v
}

// Sampled reports whether the given cycle should be timed. Safe on nil.
func (p *StageProf) Sampled(cycle uint64) bool {
	return p != nil && (cycle+p.phase)&p.mask == 0
}

// SampleEvery returns the sampling period in cycles.
func (p *StageProf) SampleEvery() int64 { return p.every }

// Add attributes a duration measured on a sampled cycle to a stage.
func (p *StageProf) Add(s Stage, d time.Duration) { p.c.nanos[s].Add(int64(d)) }

// AddTotal attributes a duration measured in full — not on a sampled cycle,
// so never scaled — to a stage.
func (p *StageProf) AddTotal(s Stage, d time.Duration) { p.c.total[s].Add(int64(d)) }

// StageSeconds returns the estimated total wall time of one stage
// (measured sampled time scaled by the sampling factor, plus time measured
// in full).
func (p *StageProf) StageSeconds(s Stage) float64 {
	return float64(p.c.nanos[s].Value()*p.every+p.c.total[s].Value()) / 1e9
}

// Merge adds another profiler's raw samples into p. Both must use the same
// sampling period for the scaled totals to stay meaningful.
func (p *StageProf) Merge(from *StageProf) {
	if from == nil {
		return
	}
	for s := Stage(0); s < numStages; s++ {
		p.c.nanos[s].Add(from.c.nanos[s].Value())
		p.c.total[s].Add(from.c.total[s].Value())
	}
}

// Seconds returns the estimated seconds per stage, omitting stages with no
// samples.
func (p *StageProf) Seconds() map[string]float64 {
	if p == nil {
		return nil
	}
	out := map[string]float64{}
	for s := Stage(0); s < numStages; s++ {
		if v := p.StageSeconds(s); v > 0 {
			out[s.String()] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// FormatStageSeconds renders a stage→seconds map sorted by descending
// share, one line per stage.
func FormatStageSeconds(sec map[string]float64) string {
	if len(sec) == 0 {
		return ""
	}
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	var total float64
	for k, v := range sec {
		rows = append(rows, kv{k, v})
		// Phase 1/2 are a sub-breakdown of rename and the oracle one of
		// fetch; don't double count.
		if k != StageRenameP1.String() && k != StageRenameP2.String() && k != StageFetchOracle.String() {
			total += v
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].v != rows[j].v {
			return rows[i].v > rows[j].v
		}
		return rows[i].k < rows[j].k
	})
	var b strings.Builder
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * r.v / total
		}
		fmt.Fprintf(&b, "  %-14s %8.3fs  %5.1f%%\n", r.k, r.v, pct)
	}
	return b.String()
}
