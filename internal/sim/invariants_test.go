package sim

import (
	"strings"
	"testing"

	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/program"
)

// TestPipelineInvariants checks cross-cutting sanity properties on every
// front-end over a real benchmark slice:
//
//	IPC <= machine width;
//	instructions fetched >= renamed >= committed (speculation only adds);
//	slot utilization in (0, 1];
//	committed == the requested budget (give or take a commit group).
func TestPipelineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	spec, err := program.SpecByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		fetch  core.FetchKind
		rename core.RenameKind
	}{
		{"W16", core.FetchSequential, core.RenameSequential},
		{"TC", core.FetchTraceCache, core.RenameSequential},
		{"PF", core.FetchParallel, core.RenameSequential},
		{"PR", core.FetchParallel, core.RenameParallel},
		{"PRd", core.FetchParallel, core.RenameDelayed},
		{"TC+PR", core.FetchTraceCache, core.RenameParallel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(feConfig(tc.name, tc.fetch, tc.rename))
			r, err := Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := r.FrontEnd
			if r.IPC <= 0 || r.IPC > 16 {
				t.Errorf("IPC %.2f out of (0,16]", r.IPC)
			}
			if s.Fetched < s.Renamed {
				t.Errorf("fetched %d < renamed %d", s.Fetched, s.Renamed)
			}
			if s.Renamed < r.Committed {
				t.Errorf("renamed %d < committed %d", s.Renamed, r.Committed)
			}
			if u := s.SlotUtilization(); u <= 0 || u > 1 {
				t.Errorf("slot utilization %.3f out of (0,1]", u)
			}
			if r.Committed < cfg.MeasureInsts || r.Committed > cfg.MeasureInsts+16 {
				t.Errorf("committed %d, budget %d", r.Committed, cfg.MeasureInsts)
			}
			if s.FragReadByRename > 0 {
				early := s.ConstructedBeforeRename()
				if early < 0 || early > 1 {
					t.Errorf("constructed-early %.3f out of range", early)
				}
			}
		})
	}
}

// TestWarmupDoesNotChangeSteadyState: two different warmup lengths on the
// same benchmark should land within a few percent of each other.
func TestWarmupDoesNotChangeSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	spec, err := program.SpecByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ipcAt := func(warm int64) float64 {
		cfg := testConfig(feConfig("TC", core.FetchTraceCache, core.RenameSequential))
		cfg.WarmupInsts = warm
		cfg.MeasureInsts = 60_000
		r, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.IPC
	}
	a, b := ipcAt(100_000), ipcAt(160_000)
	t.Logf("IPC at 100K warmup %.3f, at 160K warmup %.3f", a, b)
	if diff := (a - b) / b; diff > 0.12 || diff < -0.12 {
		t.Errorf("steady state depends on warmup: %.3f vs %.3f", a, b)
	}
}

// TestEndCountersCheck drives the end-of-run invariant checker with crafted
// counters: each broken invariant must fail with an error naming its
// counter, and the boundary cases of a healthy run must pass.
func TestEndCountersCheck(t *testing.T) {
	ok := endCounters{measure: 1000, commitWidth: 16, committed: 1000, ipc: 2.5,
		fetched: 1500, renamed: 1400, committedAll: 1300}
	cases := []struct {
		name   string
		mutate func(*endCounters)
		want   string // substring of the error; empty = must pass
	}{
		{"healthy", func(c *endCounters) {}, ""},
		{"last commit group overshoots", func(c *endCounters) { c.committed = 1015 }, ""},
		{"fetched equals committed", func(c *endCounters) { c.fetched = c.committedAll }, ""},
		{"IPC at commit width", func(c *endCounters) { c.ipc = 16 }, ""},
		{"halted short of budget", func(c *endCounters) { c.halted, c.committed = true, 400 }, ""},
		{"short of budget", func(c *endCounters) { c.committed = 999 }, "measured committed 999"},
		{"overshoot of a full group", func(c *endCounters) { c.committed = 1016 }, "measured committed 1016"},
		{"halted past budget", func(c *endCounters) { c.halted, c.committed = true, 1016 }, "measured committed"},
		{"IPC past commit width", func(c *endCounters) { c.ipc = 16.5 }, "IPC 16.5"},
		{"fetched below committed", func(c *endCounters) { c.fetched = 1299 }, "fetched 1299"},
		{"renamed below committed", func(c *endCounters) { c.renamed = 1299 }, "renamed 1299"},
	}
	for _, tc := range cases {
		c := ok
		tc.mutate(&c)
		err := c.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: passed, want an error naming %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}
