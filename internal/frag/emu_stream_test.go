package frag_test

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
)

// These tests cut the functional emulator's stream into fragments. They
// live outside package frag because emu imports frag (its batch decode
// fills frag.Dyn slices).

// TestFromCodeMatchesSplit is the core speculative-fetch correctness
// property: splitting the true dynamic stream yields an ID; walking the
// static code with that ID must reproduce the exact same instruction
// sequence. The front-end relies on this equivalence whenever a fragment
// prediction is correct.
func TestFromCodeMatchesSplit(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	m := emu.New(p)

	var stream []frag.Dyn
	refill := func() {
		for len(stream) < 2*frag.MaxLen && !m.Halted() {
			d, err := m.Step()
			if err != nil {
				break
			}
			stream = append(stream, frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
		}
	}

	frags := 0
	for refill(); len(stream) > 0; refill() {
		n, id := frag.Split(stream)
		if n == 0 {
			break
		}
		f := frag.FromCode(p, id)
		if f.Len() != n {
			t.Fatalf("fragment %d %v: FromCode length %d, split length %d", frags, id, f.Len(), n)
		}
		for i := 0; i < n; i++ {
			if f.PCs[i] != stream[i].PC {
				t.Fatalf("fragment %d %v: PC[%d] = %#x, stream %#x", frags, id, i, f.PCs[i], stream[i].PC)
			}
			if f.Insts[i] != stream[i].Inst {
				t.Fatalf("fragment %d %v: inst[%d] mismatch", frags, id, i)
			}
		}
		stream = stream[n:]
		frags++
	}
	if frags < 100 {
		t.Errorf("only %d fragments checked", frags)
	}
}

// TestTable2FragmentSizes calibrates the suite against the paper's Table 2:
// every benchmark's average fragment size must land in the paper's overall
// range (roughly 9–13 instructions).
func TestTable2FragmentSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("suite calibration is not short")
	}
	for _, spec := range program.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			avg := averageFragmentSize(t, spec, 120_000)
			if avg < 7.5 || avg > 14.5 {
				t.Errorf("%s: average fragment size %.2f outside plausible range [7.5,14.5]", spec.Name, avg)
			}
			t.Logf("%s: avg fragment size %.2f", spec.Name, avg)
		})
	}
}

func averageFragmentSize(t *testing.T, spec program.Spec, maxInsts int) float64 {
	t.Helper()
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	var stream []frag.Dyn
	total, frags := 0, 0
	for total < maxInsts {
		for len(stream) < 2*frag.MaxLen && !m.Halted() {
			d, err := m.Step()
			if err != nil {
				break
			}
			stream = append(stream, frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
		}
		if len(stream) == 0 {
			break
		}
		n, _ := frag.Split(stream)
		stream = stream[n:]
		total += n
		frags++
	}
	if frags == 0 {
		t.Fatal("no fragments")
	}
	return float64(total) / float64(frags)
}

// TestHeuristicsFromCodeMatchesSplit extends the core speculative-fetch
// equivalence property to non-default heuristics: for any heuristics, the
// ID produced by Split must reconstruct the same instructions via FromCode.
func TestHeuristicsFromCodeMatchesSplit(t *testing.T) {
	spec := program.TestSpec()
	spec.PhaseIters = 40 // enough dynamic length for 400 long fragments
	p := program.MustBuild(spec)
	for _, h := range []frag.Heuristics{
		{MaxLen: 16, BranchCutoff: 8},
		{MaxLen: 24, BranchCutoff: 12},
		{MaxLen: 32, BranchCutoff: 16},
		{MaxLen: 8, BranchCutoff: 4},
	} {
		m := emu.New(p)
		var stream []frag.Dyn
		frags := 0
		for frags < 400 {
			for len(stream) < 2*h.MaxLen && !m.Halted() {
				d, err := m.Step()
				if err != nil {
					break
				}
				stream = append(stream, frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
			}
			if len(stream) == 0 {
				break
			}
			n, id := h.Split(stream)
			f := h.FromCode(p, id)
			if f.Len() != n {
				t.Fatalf("h=%+v frag %d: FromCode %d vs Split %d", h, frags, f.Len(), n)
			}
			for i := 0; i < n; i++ {
				if f.PCs[i] != stream[i].PC {
					t.Fatalf("h=%+v frag %d idx %d: %#x vs %#x", h, frags, i, f.PCs[i], stream[i].PC)
				}
			}
			stream = stream[n:]
			frags++
		}
		if frags < 100 {
			t.Fatalf("h=%+v: only %d fragments", h, frags)
		}
	}
}

func TestLongerHeuristicsYieldLongerFragments(t *testing.T) {
	p := program.MustBuild(program.TestSpec())
	avg := func(h frag.Heuristics) float64 {
		m := emu.New(p)
		var stream []frag.Dyn
		total, frags := 0, 0
		for total < 20000 {
			for len(stream) < 2*h.MaxLen && !m.Halted() {
				d, err := m.Step()
				if err != nil {
					break
				}
				stream = append(stream, frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
			}
			if len(stream) == 0 {
				break
			}
			n, _ := h.Split(stream)
			stream = stream[n:]
			total += n
			frags++
		}
		return float64(total) / float64(frags)
	}
	short := avg(frag.Heuristics{MaxLen: 16, BranchCutoff: 8})
	long := avg(frag.Heuristics{MaxLen: 32, BranchCutoff: 16})
	t.Logf("avg fragment: 16/8 -> %.2f, 32/16 -> %.2f", short, long)
	if long <= short {
		t.Errorf("longer heuristics did not lengthen fragments: %.2f vs %.2f", short, long)
	}
}
