package frag

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
)

func straight(pc uint64, n int) []Dyn {
	ds := make([]Dyn, n)
	for i := range ds {
		ds[i] = Dyn{PC: pc + uint64(i*4), Inst: isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}}
	}
	return ds
}

func TestSplitStopsAtSixteen(t *testing.T) {
	n, id := Split(straight(0x1000, 40))
	if n != MaxLen {
		t.Errorf("straight-line fragment length = %d, want %d", n, MaxLen)
	}
	if id.StartPC != 0x1000 || id.NumBr != 0 {
		t.Errorf("bad id %v", id)
	}
}

func TestSplitStopsAtIndirect(t *testing.T) {
	ds := straight(0x1000, 3)
	ds = append(ds, Dyn{PC: 0x100c, Inst: isa.Inst{Op: isa.OpJr, Rs1: isa.RegLink}})
	ds = append(ds, straight(0x2000, 10)...)
	n, id := Split(ds)
	if n != 4 {
		t.Errorf("fragment with return at position 4: length %d, want 4", n)
	}
	if id.NumBr != 0 {
		t.Errorf("return must not consume a direction bit: %v", id)
	}
}

func TestSplitEarlyBranchContinues(t *testing.T) {
	// A conditional branch at position 4 (<= 8) must not terminate.
	ds := straight(0x1000, 3)
	ds = append(ds, Dyn{PC: 0x100c, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 10}, Taken: true})
	ds = append(ds, straight(0x1038, 20)...)
	n, id := Split(ds)
	if n != MaxLen {
		t.Errorf("length %d, want %d", n, MaxLen)
	}
	if id.NumBr != 1 || id.BrMask != 1 {
		t.Errorf("expected one taken branch recorded, got %v", id)
	}
}

func TestSplitLateBranchStops(t *testing.T) {
	// A conditional branch at position 9 (> 8) terminates the fragment.
	ds := straight(0x1000, 8)
	ds = append(ds, Dyn{PC: 0x1020, Inst: isa.Inst{Op: isa.OpBeq, Rs1: 1, Rs2: 1, Imm: 5}, Taken: false})
	ds = append(ds, straight(0x3000, 10)...)
	n, id := Split(ds)
	if n != 9 {
		t.Errorf("length %d, want 9", n)
	}
	if id.NumBr != 1 || id.BrMask != 0 {
		t.Errorf("expected one not-taken branch recorded, got %v", id)
	}
}

func TestSplitBranchAtCutoffContinues(t *testing.T) {
	// Position 8 exactly: must NOT stop ("after the eighth instruction").
	ds := straight(0x1000, 7)
	ds = append(ds, Dyn{PC: 0x101c, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 4}, Taken: true})
	ds = append(ds, straight(0x1034, 20)...)
	n, _ := Split(ds)
	if n != MaxLen {
		t.Errorf("length %d, want %d (branch at position 8 continues)", n, MaxLen)
	}
}

func TestIDKeyUniqueness(t *testing.T) {
	seen := make(map[uint64]ID)
	ids := []ID{
		{StartPC: 0x1000},
		{StartPC: 0x1004},
		{StartPC: 0x1000, BrMask: 1, NumBr: 1},
		{StartPC: 0x1000, BrMask: 0, NumBr: 1},
		{StartPC: 0x1000, BrMask: 3, NumBr: 2},
		{StartPC: 0x2000, BrMask: 3, NumBr: 2},
	}
	for _, id := range ids {
		k := id.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision: %v and %v", prev, id)
		}
		seen[k] = id
	}
}

func TestPoolReuse(t *testing.T) {
	pool := NewPool(4)
	f := &Fragment{ID: ID{StartPC: 0x1000}, PCs: []uint64{0x1000}, Insts: []isa.Inst{{Op: isa.OpAdd, Rd: 1}}}
	b, reused := pool.Allocate(f, 0)
	if b == nil || reused {
		t.Fatal("first allocation must be fresh")
	}
	b.MarkFetched(1)
	if !b.Complete {
		t.Fatal("buffer should be complete")
	}
	pool.Release(b)

	// Reuse must keep the buffer's stale copy: pass a DIFFERENT Fragment
	// value with the same ID and verify the original contents survive.
	f2 := &Fragment{ID: f.ID}
	b2, reused := pool.Allocate(f2, 1)
	if b2 != b || !reused {
		t.Fatal("expected reuse of the same buffer")
	}
	if b2.Frag != f {
		t.Error("reuse must keep the buffer's existing contents, not rebuild")
	}
	if !b2.Complete || b2.Fetched != 1 {
		t.Error("reused buffer must be immediately complete")
	}
	if pool.ReuseRate() != 0.5 {
		t.Errorf("reuse rate %.2f, want 0.5", pool.ReuseRate())
	}
}

func TestPoolExhaustion(t *testing.T) {
	pool := NewPool(2)
	mk := func(pc uint64) *Fragment { return &Fragment{ID: ID{StartPC: pc}} }
	a, _ := pool.Allocate(mk(0x100), 0)
	b, _ := pool.Allocate(mk(0x200), 1)
	if a == nil || b == nil {
		t.Fatal("allocations failed")
	}
	if c, _ := pool.Allocate(mk(0x300), 2); c != nil {
		t.Fatal("pool should be exhausted")
	}
	pool.Release(a)
	if c, _ := pool.Allocate(mk(0x300), 2); c == nil {
		t.Fatal("allocation should succeed after release")
	}
}

func TestPoolSquashDropsContents(t *testing.T) {
	pool := NewPool(4)
	mk := func(pc uint64) *Fragment { return &Fragment{ID: ID{StartPC: pc}} }
	pool.Allocate(mk(0x100), 10)
	pool.Allocate(mk(0x200), 11)
	pool.SquashYounger(11)
	if pool.InUseCount() != 1 {
		t.Errorf("in use = %d, want 1", pool.InUseCount())
	}
	// The squashed fragment must not be reusable.
	b, reused := pool.Allocate(mk(0x200), 12)
	if b == nil || reused {
		t.Error("squashed contents must not satisfy reuse")
	}
	old := pool.Oldest()
	if old == nil || old.Seq != 10 {
		t.Errorf("oldest = %+v, want seq 10", old)
	}
}

func TestPoolVictimRoundRobin(t *testing.T) {
	pool := NewPool(3)
	mk := func(pc uint64) *Fragment { return &Fragment{ID: ID{StartPC: pc}} }
	var seq uint64
	alloc := func(pc uint64) *Buffer {
		b, _ := pool.Allocate(mk(pc), seq)
		seq++
		return b
	}
	a := alloc(0x100)
	pool.Release(a)
	b := alloc(0x200)
	pool.Release(b)
	c := alloc(0x300)
	pool.Release(c)
	if a.Index == b.Index || b.Index == c.Index || a.Index == c.Index {
		t.Errorf("round-robin should use distinct buffers: %d %d %d", a.Index, b.Index, c.Index)
	}
}
