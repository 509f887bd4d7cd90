package pfe

import (
	"math"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/program"
)

// TestSampledRun exercises the systematic-sampling mode end to end: the
// estimate comes with its confidence interval, the window plan covers the
// measured stream, and the estimate lands near the full run's IPC. (The
// strict accuracy gate — error within the CI on every benchmark — is the
// -validate-sampling suite; this pins the plumbing.)
func TestSampledRun(t *testing.T) {
	m := Preset(PR2x8w)
	opts := Quick()
	full, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sample = &SampleSpec{Unit: 1_000, Period: 5_000, Warmup: 1_500}
	got, err := Run("gcc", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := got.Sampling
	if s == nil {
		t.Fatal("sampled run returned no Sampling info")
	}
	if want := 12; s.Windows != want { // 60 K measured / 5 K period
		t.Errorf("Windows = %d, want %d", s.Windows, want)
	}
	if len(s.WindowIPCs) != s.Windows {
		t.Errorf("WindowIPCs has %d entries for %d windows", len(s.WindowIPCs), s.Windows)
	}
	if got.IPC != s.IPCMean || got.SampledIPC != s.IPCMean {
		t.Errorf("IPC %v / SampledIPC %v disagree with IPCMean %v", got.IPC, got.SampledIPC, s.IPCMean)
	}
	if s.IPCCI95 <= 0 || math.IsInf(s.IPCCI95, 1) {
		t.Errorf("CI95 = %v, want finite and positive for %d windows", s.IPCCI95, s.Windows)
	}
	if s.DetailedInsts <= 0 || s.SkippedInsts <= 0 {
		t.Errorf("detailed=%d skipped=%d, want both positive (sampling should skip most of the stream)",
			s.DetailedInsts, s.SkippedInsts)
	}
	if got.Pipeline == nil || got.Committed <= 0 || got.Cycles == 0 {
		t.Errorf("aggregate result incomplete: committed=%d cycles=%d pipeline=%v",
			got.Committed, got.Cycles, got.Pipeline)
	}
	if rel := math.Abs(got.IPC-full.IPC) / full.IPC; rel > 0.08 {
		t.Errorf("sampled IPC %.4f vs full %.4f: %.1f%% error (plumbing-level sanity bound 8%%)",
			got.IPC, full.IPC, 100*rel)
	}
}

// TestSampledSingleWindow pins the degenerate plan: a unit covering the
// whole measurement yields one window, whose estimate carries an infinite
// confidence half-width (one observation supports no error claim).
func TestSampledSingleWindow(t *testing.T) {
	opts := RunOptions{WarmupInsts: 5_000, MeasureInsts: 10_000,
		Sample: &SampleSpec{Unit: 20_000, Period: 50_000, Warmup: 1_000}}
	got, err := Run("gzip", Preset(W16), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampling.Windows != 1 {
		t.Fatalf("Windows = %d, want 1", got.Sampling.Windows)
	}
	if !math.IsInf(got.Sampling.IPCCI95, 1) {
		t.Errorf("CI95 = %v for a single window, want +Inf", got.Sampling.IPCCI95)
	}
}

// TestSampleSpecValidate rejects non-positive window parameters.
func TestSampleSpecValidate(t *testing.T) {
	for _, spec := range []SampleSpec{
		{Unit: 0, Period: 100, Warmup: 0},
		{Unit: 100, Period: 0, Warmup: 0},
		{Unit: 100, Period: 100, Warmup: -1},
	} {
		opts := Quick()
		opts.Sample = &spec
		if _, err := Run("gcc", Preset(W16), opts); err == nil {
			t.Errorf("Run accepted invalid sample spec %+v", spec)
		}
	}
}

// TestWarmGapZeroAlloc is the functional warmer's allocation guard: once the
// run's fragment table holds a gap's fragments, warming the gap — batch
// decode, cache touches, prediction loop, live-out and trace-cache training
// — allocates nothing.
func TestWarmGapZeroAlloc(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := artifact.Record(p, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const from, to = 120_000, 150_000
	for _, fe := range []FrontEnd{TC, PR2x8w} {
		m := Preset(fe)
		rd := tape.NewReader()
		tab := core.NewFragTable(p, m.frontEnd.FragHeuristics)
		wm := newWarmer(rd, p, []Machine{m}, tab)
		gap := func() {
			if err := rd.Seek(from); err != nil {
				t.Fatal(err)
			}
			wm.resync()
			if err := wm.warmTo(to); err != nil {
				t.Fatal(err)
			}
		}
		if err := wm.warmTo(from); err != nil {
			t.Fatal(err)
		}
		// The predictor's answers shift as it trains, so a replayed gap may
		// still ask for a fragment no earlier pass did (building it is the
		// table's one allocation): replay until a pass builds nothing.
		for try := 0; ; try++ {
			built := tab.Built()
			allocs := testing.AllocsPerRun(1, gap)
			if tab.Built() == built {
				if allocs != 0 {
					t.Errorf("%s: warming a gap allocated %.1f objects, want 0", fe, allocs)
				}
				break
			}
			if try == 50 {
				t.Fatalf("%s: the fragment table still grows after %d replays of the gap", fe, try)
			}
		}
	}
}
