package backend

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
)

func TestCommitBarrierBlocksYoungerOps(t *testing.T) {
	b := newTestBackend()
	// Ops 5..8 are in the window; ops 0..4 have not been delivered by
	// rename yet (e.g. a delayed renamer waiting on a mapping).
	for i := uint64(5); i < 9; i++ {
		b.Insert(alu(i))
	}
	b.SetCommitBarrier(5)
	b.Cycle(0)
	n, _ := b.Cycle(1)
	if n != 0 {
		t.Fatalf("committed %d ops past the barrier", n)
	}
	// Rename delivers the older ops and lifts the barrier.
	for i := uint64(0); i < 5; i++ {
		b.Insert(alu(i))
	}
	b.SetCommitBarrier(^uint64(0))
	b.Cycle(2)
	n, _ = b.Cycle(3)
	if n != 9 {
		t.Fatalf("committed %d, want all 9", n)
	}
}

func TestCommitBarrierExactBoundary(t *testing.T) {
	b := newTestBackend()
	b.Insert(alu(3))
	b.Insert(alu(4))
	b.SetCommitBarrier(4) // op 3 may commit; op 4 may not
	b.Cycle(0)
	n, _ := b.Cycle(1)
	if n != 1 {
		t.Fatalf("committed %d, want exactly 1 (below the barrier)", n)
	}
}

func TestWrongPathExecutionCounted(t *testing.T) {
	b := newTestBackend()
	wp := alu(0)
	wp.WrongPath = true
	b.Insert(wp)
	b.Cycle(0)
	if b.WrongPathExecuted() != 1 {
		t.Errorf("wrong-path executed = %d", b.WrongPathExecuted())
	}
	if b.FreeSlots() != b.cfg.WindowSize-1 {
		t.Errorf("free slots %d", b.FreeSlots())
	}
}

func TestIssueIsOldestFirstUnderFUContention(t *testing.T) {
	b := newTestBackend()
	// Five multiplies (4 FUs): the four OLDEST must win.
	var ops []*Op
	for i := uint64(0); i < 5; i++ {
		op := &Op{Seq: i, Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}}
		ops = append(ops, op)
		b.Insert(op)
	}
	b.Cycle(0)
	for i, op := range ops {
		wantIssued := i < 4
		if op.Issued() != wantIssued {
			t.Errorf("op %d issued=%v, want %v", i, op.Issued(), wantIssued)
		}
	}
}

func TestResolutionReportsOldestPoint(t *testing.T) {
	b := newTestBackend()
	young := &Op{Seq: 10, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 2}}
	old := &Op{Seq: 3, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 2}}
	young.MarkMispredictPoint()
	old.MarkMispredictPoint()
	b.Insert(young)
	b.Insert(old)
	b.Cycle(0)
	_, res := b.Cycle(1)
	if res == nil || res.Op != old {
		t.Fatalf("resolution = %+v, want the oldest point", res)
	}
}

func TestSquashFromIsExactPrefix(t *testing.T) {
	b := newTestBackend()
	for i := uint64(0); i < 8; i += 2 { // gappy seqs, as after earlier squashes
		b.Insert(alu(i))
	}
	if n := b.SquashFrom(3); n != 2 {
		t.Fatalf("squashed %d, want 2 (seqs 4 and 6)", n)
	}
	if b.InFlight() != 2 {
		t.Errorf("in flight %d, want 2 (seqs 0 and 2)", b.InFlight())
	}
}
