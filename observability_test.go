package pfe

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/obs"
)

// TestSelfProfileStageSeconds checks the sampled self-profiler attributes
// wall time to every stage of a parallel-rename front-end, including the
// phase-1/phase-2 sub-breakdown of rename.
func TestSelfProfileStageSeconds(t *testing.T) {
	r, err := Run("gcc", Preset(PR2x8w),
		RunOptions{WarmupInsts: 10_000, MeasureInsts: 40_000, SelfProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"fetch", "rename", "rename_phase1", "rename_phase2", "backend"} {
		if r.StageSeconds[stage] <= 0 {
			t.Errorf("StageSeconds[%q] = %v, want > 0 (have %v)", stage, r.StageSeconds[stage], r.StageSeconds)
		}
	}
	// Phase 1+2 are a sub-breakdown of rename, not extra time: each runs
	// inside the rename stage, so neither can exceed the whole. (They are
	// separately-sampled estimates, so allow generous slack.)
	if p1 := r.StageSeconds["rename_phase1"]; p1 > 2*r.StageSeconds["rename"] {
		t.Errorf("rename_phase1 (%v) implausibly exceeds rename (%v)", p1, r.StageSeconds["rename"])
	}
}

// TestNoSelfProfileNoStageSeconds: without the flag, results carry no
// self-profile (the pay-for-use contract).
func TestNoSelfProfileNoStageSeconds(t *testing.T) {
	r, err := Run("gcc", Preset(W16), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.StageSeconds != nil {
		t.Errorf("StageSeconds = %v, want nil without SelfProfile", r.StageSeconds)
	}
}

// TestObsCountersFed checks the live-telemetry flush path: after a run with
// counters attached, cycles and committed instructions are visible and
// consistent with the result.
func TestObsCountersFed(t *testing.T) {
	sc := obs.NewSimCounters(nil)
	r, err := Run("gcc", Preset(W16),
		RunOptions{WarmupInsts: 10_000, MeasureInsts: 40_000, Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	if sc.SimsStarted.Value() != 1 || sc.SimsCompleted.Value() != 1 {
		t.Errorf("sims started/completed = %d/%d, want 1/1", sc.SimsStarted.Value(), sc.SimsCompleted.Value())
	}
	// Counters include warmup, so they bound the measured result from above.
	if c := sc.Cycles.Value(); uint64(c) < r.Cycles {
		t.Errorf("telemetry cycles %d < measured cycles %d", c, r.Cycles)
	}
	if sc.Committed.Value() < r.Committed {
		t.Errorf("telemetry committed %d < measured committed %d", sc.Committed.Value(), r.Committed)
	}
}

// TestHistogramsNilSafe: Result renderers tolerate hand-constructed values
// without pipeline histograms, and nil receivers.
func TestHistogramsNilSafe(t *testing.T) {
	var nilRes *Result
	if got := nilRes.Histograms(); got != "" {
		t.Errorf("nil receiver: %q, want empty", got)
	}
	if got := (&Result{Bench: "gcc"}).Histograms(); got != "" {
		t.Errorf("nil pipeline: %q, want empty", got)
	}
	// A real run still renders them.
	r, err := Run("gcc", Preset(PR2x8w), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.Histograms() == "" {
		t.Error("real run should render pipeline histograms")
	}
}

// TestSampledSelfProfileStageSeconds: a sampled run profiles every detailed
// window and sums their stage times, so it reports the same stages as a full
// run, each nonzero — no execution path may silently report zeros — plus
// the functional warming between windows. On both paths the oracle stream
// is a part of fetch.
func TestSampledSelfProfileStageSeconds(t *testing.T) {
	opts := RunOptions{WarmupInsts: 10_000, MeasureInsts: 40_000, SelfProfile: true}
	full, err := Run("gcc", Preset(PR2x8w), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Sample = &SampleSpec{Unit: 2_000, Period: 10_000, Warmup: 1_000}
	sampled, err := Run("gcc", Preset(PR2x8w), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Sampling == nil || sampled.Sampling.Windows < 2 {
		t.Fatalf("want a multi-window sampled run, got %+v", sampled.Sampling)
	}
	if _, ok := full.StageSeconds["warm"]; ok || len(sampled.StageSeconds) != len(full.StageSeconds)+1 {
		t.Errorf("sampled stages %v, full run stages %v: want the full run's plus warm", sampled.StageSeconds, full.StageSeconds)
	}
	for stage := range full.StageSeconds {
		if sampled.StageSeconds[stage] <= 0 {
			t.Errorf("sampled StageSeconds[%q] = %v, want > 0 (have %v)", stage, sampled.StageSeconds[stage], sampled.StageSeconds)
		}
	}
	if sampled.StageSeconds["warm"] <= 0 {
		t.Errorf("sampled StageSeconds[warm] = %v, want > 0", sampled.StageSeconds["warm"])
	}
	for _, r := range []*Result{full, sampled} {
		if o, f := r.StageSeconds["fetch_oracle"], r.StageSeconds["fetch"]; o <= 0 || o > f {
			t.Errorf("fetch_oracle %v, fetch %v: want 0 < fetch_oracle <= fetch", o, f)
		}
	}
}
