package frag

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
)

func TestHeuristicsNormalize(t *testing.T) {
	h := Heuristics{}.normalize()
	if h != DefaultHeuristics() {
		t.Errorf("zero value normalized to %+v", h)
	}
	h = Heuristics{MaxLen: 100, BranchCutoff: 50}.normalize()
	if h.MaxLen != 32 {
		t.Errorf("MaxLen not capped: %d", h.MaxLen)
	}
}

func TestLongFragmentsSplit(t *testing.T) {
	h := Heuristics{MaxLen: 32, BranchCutoff: 16}
	n, _ := h.Split(straight(0x1000, 64))
	if n != 32 {
		t.Errorf("straight-line length %d, want 32", n)
	}
	// A branch at position 12 continues under cutoff 16 but stops under
	// the default cutoff 8.
	ds := straight(0x1000, 11)
	ds = append(ds, Dyn{PC: 0x102c, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 4}, Taken: false})
	ds = append(ds, straight(0x1030, 40)...)
	if n, _ := h.Split(ds); n != 32 {
		t.Errorf("cutoff-16 split = %d, want 32", n)
	}
	if n, _ := Split(ds); n != 12 {
		t.Errorf("default split = %d, want 12", n)
	}
}

func TestIDKeyDistinguishesWideMasks(t *testing.T) {
	a := ID{StartPC: 0x1000, BrMask: 1 << 16, NumBr: 17}
	b := ID{StartPC: 0x1000, BrMask: 1 << 15, NumBr: 17}
	if a.Key() == b.Key() {
		t.Error("keys collide for wide direction masks")
	}
}
