package artifact

import (
	"errors"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/program"
)

// stepOracle is an oracle that also decodes one instruction at a time, as
// both emu.Machine and Reader do.
type stepOracle interface {
	emu.Oracle
	Step() (emu.DynInst, error)
}

// drainBoth steps a live machine and a tape reader in lockstep for up to n
// instructions, failing on the first divergence. Returns how many
// instructions both produced.
func drainBoth(t *testing.T, name string, live, replay stepOracle, n uint64) uint64 {
	t.Helper()
	var i uint64
	for ; i < n; i++ {
		if live.Halted() != replay.Halted() {
			t.Fatalf("%s: seq %d: halted live=%v replay=%v", name, i, live.Halted(), replay.Halted())
		}
		if live.Halted() {
			break
		}
		want, werr := live.Step()
		got, gerr := replay.Step()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: seq %d: err live=%v replay=%v", name, i, werr, gerr)
		}
		if werr != nil {
			break
		}
		if got != want {
			t.Fatalf("%s: seq %d: replay diverged:\n live  %+v\n replay %+v", name, i, want, got)
		}
	}
	return i
}

// TestTapeReplayBitIdentical replays every suite benchmark against the live
// emulator and requires the identical DynInst stream, including the region
// past the recorded end (the live-fallback path) and post-halt behaviour.
func TestTapeReplayBitIdentical(t *testing.T) {
	for _, name := range program.SuiteNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := program.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := program.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			const budget = 20_000
			tape, err := Record(p, budget)
			if err != nil {
				t.Fatal(err)
			}
			// Drain past the tape's end so the fallback region is compared
			// too.
			drainBoth(t, name, emu.New(p), tape.NewReader(), budget+5_000)
		})
	}
}

// TestTapeReplayHalt runs the halting miniature benchmark to completion on
// both paths: same stream, same halt point, same post-halt errors.
func TestTapeReplayHalt(t *testing.T) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tape.Halted() {
		t.Fatalf("test spec should halt within the recording budget (recorded %d)", tape.Len())
	}
	live, replay := emu.New(p), tape.NewReader()
	n := drainBoth(t, "testspec", live, replay, 2_000_000)
	if n != tape.Len() {
		t.Fatalf("replayed %d instructions, tape recorded %d", n, tape.Len())
	}
	if !replay.Halted() || !live.Halted() {
		t.Fatalf("halted: live=%v replay=%v", live.Halted(), replay.Halted())
	}
	if _, err := replay.Step(); !errors.Is(err, emu.ErrHalted) {
		t.Fatalf("Step after halt: got %v, want ErrHalted", err)
	}
	if tape.FallbackSteps() != 0 {
		t.Fatalf("halting replay used the fallback: %d steps", tape.FallbackSteps())
	}
}

// TestTapeFallbackCounts verifies that reading past a truncated recording
// both stays bit-identical (covered above) and is visible in the fallback
// counter.
func TestTapeFallbackCounts(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := Record(p, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	n := drainBoth(t, "gcc-truncated", emu.New(p), tape.NewReader(), 3_000)
	if n != 3_000 {
		t.Fatalf("drained %d instructions, want 3000", n)
	}
	if got := tape.FallbackSteps(); got != 2_000 {
		t.Fatalf("FallbackSteps = %d, want 2000", got)
	}
}

// TestTapeCompactness pins the point of the delta encoding: the tape must
// stay well under a byte per recorded instruction (a raw DynInst is 48).
func TestTapeCompactness(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50_000
	tape, err := Record(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(tape.Bytes()) / float64(tape.Len())
	if perInst >= 1.5 {
		t.Fatalf("tape costs %.2f bytes/instruction (%d bytes for %d insts); encoding regressed",
			perInst, tape.Bytes(), tape.Len())
	}
	t.Logf("tape: %d insts in %d bytes (%.3f bytes/inst)", tape.Len(), tape.Bytes(), perInst)
}

// TestTapeReplayAllocsLessThanLive is the steady-state allocation guard:
// serving a cell's oracle from a shared tape must allocate less than live
// emulation, which pays for a fresh data segment and stack every run.
func TestTapeReplayAllocsLessThanLive(t *testing.T) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5_000
	tape, err := Record(p, steps)
	if err != nil {
		t.Fatal(err)
	}
	replayAllocs := testing.AllocsPerRun(10, func() {
		r := tape.NewReader()
		for i := 0; i < steps; i++ {
			if _, err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	liveAllocs := testing.AllocsPerRun(10, func() {
		m := emu.New(p)
		for i := 0; i < steps; i++ {
			if _, err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if replayAllocs >= liveAllocs {
		t.Fatalf("tape replay allocates %.0f objects/run, live emulation %.0f; replay should be cheaper",
			replayAllocs, liveAllocs)
	}
	t.Logf("allocs/run: replay %.0f, live %.0f", replayAllocs, liveAllocs)
}
