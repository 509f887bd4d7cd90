package sim

import (
	"errors"
	"testing"

	"github.com/parallel-frontend/pfe/internal/core"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
)

var errOracleBroke = errors.New("test oracle: decode failed")

// failingOracle is the live emulator until instruction failAt, where it
// fails the way a corrupt tape does.
type failingOracle struct {
	m      *emu.Machine
	failAt uint64
}

func (o *failingOracle) Halted() bool { return o.m.Halted() }

func (o *failingOracle) Fill(dyn []frag.Dyn, ea []uint64) (int, error) {
	for i := range dyn {
		if o.m.Halted() {
			return i, nil
		}
		if o.m.ICount() >= o.failAt {
			return i, errOracleBroke
		}
		d, err := o.m.Step()
		if err != nil {
			return i, err
		}
		dyn[i], ea[i] = frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken}, d.EA
	}
	return len(dyn), nil
}

// TestRunReturnsOracleError: an oracle that fails mid-stream ends the run
// with that error, on every fetch organization — never with a short Result
// as if the program had halted.
func TestRunReturnsOracleError(t *testing.T) {
	spec := program.TestSpec()
	spec.PhaseIters = 2000
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range []core.Config{
		feConfig("W16", core.FetchSequential, core.RenameSequential),
		feConfig("TC", core.FetchTraceCache, core.RenameSequential),
		feConfig("PR-2x8w", core.FetchParallel, core.RenameParallel),
	} {
		cfg := testConfig(fe)
		cfg.Oracle = &failingOracle{m: emu.New(p), failAt: 20_000}
		r, err := Run(p, cfg)
		if !errors.Is(err, errOracleBroke) {
			t.Errorf("%s: Run = %+v, %v; want the oracle's error", fe.Name, r, err)
		}
	}
}

// TestRepeatedWindowBuildsNoFragments: a run handed a fragment table that
// already holds its fragments builds none — the guarantee that lets every
// detailed window of a sampled run share one table.
func TestRepeatedWindowBuildsNoFragments(t *testing.T) {
	spec := program.TestSpec()
	spec.PhaseIters = 2000
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range []core.Config{
		feConfig("TC", core.FetchTraceCache, core.RenameSequential),
		feConfig("PR-2x8w", core.FetchParallel, core.RenameParallel),
	} {
		cfg := testConfig(fe)
		cfg.WarmupInsts, cfg.MeasureInsts = 3_000, 2_000
		cfg.FragTable = core.NewFragTable(p, fe.FragHeuristics)
		first, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		built := cfg.FragTable.Built()
		if built == 0 {
			t.Fatalf("%s: the first window built no fragments", fe.Name)
		}
		again, err := Run(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := cfg.FragTable.Built() - built; n != 0 {
			t.Errorf("%s: the repeated window built %d fragments, want 0", fe.Name, n)
		}
		if again.Cycles != first.Cycles || again.Committed != first.Committed {
			t.Errorf("%s: repeated window %d cycles / %d committed, first %d / %d",
				fe.Name, again.Cycles, again.Committed, first.Cycles, first.Committed)
		}
	}
}

// TestForeignFragTableRejected: a table for another program or fragment
// selection cannot be handed to a run.
func TestForeignFragTableRejected(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(feConfig("W16", core.FetchSequential, core.RenameSequential))
	cfg.FragTable = core.NewFragTable(p, frag.Heuristics{MaxLen: 24, BranchCutoff: 12})
	if _, err := Run(p, cfg); err == nil {
		t.Fatal("Run accepted a fragment table built under other heuristics")
	}
}

// posOracle is an oracle that reports its stream position, as a tape
// reader does.
type posOracle struct {
	emu.Oracle
	pos uint64
}

func (o posOracle) Pos() uint64 { return o.pos }

// TestProfSeedSeparatesWindows: the self-profile phase seed of a run depends
// on where in the stream its oracle starts, so the windows of a sampled run
// (same program, machine and budgets) sample different cycles, and on
// nothing else that varies between two identical runs.
func TestProfSeedSeparatesWindows(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(pos uint64) *Config {
		return &Config{FrontEnd: core.Config{Name: "PR-2x8w"}, WarmupInsts: 3000, MeasureInsts: 2000,
			Oracle: posOracle{Oracle: emu.New(p), pos: pos}}
	}
	if profSeed(p, cfg(20_000)) != profSeed(p, cfg(20_000)) {
		t.Error("the same window gets two seeds")
	}
	if profSeed(p, cfg(20_000)) == profSeed(p, cfg(40_000)) {
		t.Error("windows at different stream positions share a seed")
	}
}
