package backend

import (
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/program"
)

func newTestBackend() *Backend {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	return New(DefaultConfig(), h.L1D)
}

func alu(seq uint64, producers ...uint64) *Op {
	op := &Op{Seq: seq, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3}}
	copy(op.Producers[:], producers)
	op.NProd = len(producers)
	return op
}

// run advances the backend until idle or limit, returning the cycle at
// which everything committed.
func run(t *testing.T, b *Backend, limit uint64) uint64 {
	t.Helper()
	for now := uint64(0); now < limit; now++ {
		b.Cycle(now)
		if b.InFlight() == 0 {
			return now
		}
	}
	t.Fatalf("backend did not drain in %d cycles", limit)
	return 0
}

func TestIndependentOpsIssueTogether(t *testing.T) {
	b := newTestBackend()
	for i := 0; i < 16; i++ {
		b.Insert(alu(uint64(i)))
	}
	// All 16 fit the 16 integer ALUs: issue at cycle 0 (done at 1),
	// commit at cycle 1.
	b.Cycle(0)
	n, _ := b.Cycle(1)
	if n != 16 {
		t.Errorf("committed %d at cycle 1, want 16", n)
	}
}

func TestFUContention(t *testing.T) {
	b := newTestBackend()
	// 5 independent multiplies, but only 4 multipliers.
	var ops []*Op
	for i := 0; i < 5; i++ {
		op := &Op{Seq: uint64(i), Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}}
		ops = append(ops, op)
		b.Insert(op)
	}
	b.Cycle(0) // 4 issue
	issued := 0
	for _, op := range ops {
		if op.Issued() {
			issued++
		}
	}
	if issued != 4 {
		t.Errorf("%d multiplies issued in cycle 0, want 4", issued)
	}
}

func TestDependenceChainSerializes(t *testing.T) {
	b := newTestBackend()
	// Chain of 5 dependent single-cycle ALU ops: completion at cycles
	// 1,2,3,4,5 -> all committed by cycle 5.
	for i := uint64(0); i < 5; i++ {
		if i == 0 {
			b.Insert(alu(i))
		} else {
			b.Insert(alu(i, i-1))
		}
	}
	end := run(t, b, 100)
	if end != 5 {
		t.Errorf("chain drained at cycle %d, want 5", end)
	}
}

func TestCommitIsInOrder(t *testing.T) {
	b := newTestBackend()
	// Op 0 is a slow multiply (3 cycles); ops 1..5 are fast but must
	// wait for op 0 to commit first.
	b.Insert(&Op{Seq: 0, Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}})
	for i := uint64(1); i <= 5; i++ {
		b.Insert(alu(i))
	}
	var commits []int
	for now := uint64(0); now <= 4; now++ {
		n, _ := b.Cycle(now)
		commits = append(commits, n)
	}
	// Nothing commits until the multiply completes at cycle 3.
	if commits[0] != 0 || commits[1] != 0 || commits[2] != 0 {
		t.Errorf("early commits: %v", commits)
	}
	if commits[3] != 6 {
		t.Errorf("cycle 3 committed %d, want all 6", commits[3])
	}
}

func TestLoadGoesThroughDCache(t *testing.T) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig())
	b := New(DefaultConfig(), h.L1D)
	ld := &Op{Seq: 0, Inst: isa.Inst{Op: isa.OpLw, Rd: 1, Rs1: 2}, EA: program.DataBase}
	b.Insert(ld)
	b.Cycle(0)
	// Cold load: L1 miss -> L2 miss -> memory: 1+10+100 = 111.
	if ld.Done() != 111 {
		t.Errorf("cold load done at %d, want 111", ld.Done())
	}
	// A second load to the same block hits L1.
	ld2 := &Op{Seq: 1, Inst: isa.Inst{Op: isa.OpLw, Rd: 1, Rs1: 2}, EA: program.DataBase + 8}
	b.Insert(ld2)
	b.Cycle(200)
	if ld2.Done() != 201 {
		t.Errorf("warm load done at %d, want 201", ld2.Done())
	}
}

func TestWrongPathOpsDoNotCommit(t *testing.T) {
	b := newTestBackend()
	b.Insert(alu(0))
	wp := alu(1)
	wp.WrongPath = true
	b.Insert(wp)
	b.Cycle(0)
	n, _ := b.Cycle(1)
	if n != 1 {
		t.Errorf("committed %d, want 1 (wrong-path op must block, not commit)", n)
	}
	if b.InFlight() != 1 {
		t.Errorf("in flight %d, want the wrong-path op", b.InFlight())
	}
	b.SquashFrom(1)
	if b.InFlight() != 0 {
		t.Error("squash did not remove wrong-path op")
	}
}

func TestMispredictPointResolution(t *testing.T) {
	b := newTestBackend()
	br := &Op{Seq: 0, Inst: isa.Inst{Op: isa.OpBne, Rs1: 1, Rs2: 2}}
	br.MarkMispredictPoint()
	b.Insert(br)
	wp := alu(1)
	wp.WrongPath = true
	b.Insert(wp)

	_, res := b.Cycle(0) // issues, completes at cycle 1
	if res != nil {
		t.Fatal("resolution before completion")
	}
	n, res := b.Cycle(1)
	if res == nil || res.Op != br || res.Cycle != 1 {
		t.Fatalf("resolution = %+v", res)
	}
	if n != 0 {
		t.Errorf("mispredict point committed before being cleared (%d)", n)
	}
	// Simulator handles the redirect: squash younger, clear the point.
	b.SquashFrom(1)
	b.ClearMispredictPoint(br)
	n, _ = b.Cycle(2)
	if n != 1 {
		t.Errorf("cleared branch did not commit: %d", n)
	}
}

func TestSquashFromKeepsOlder(t *testing.T) {
	b := newTestBackend()
	for i := uint64(0); i < 10; i++ {
		b.Insert(alu(i))
	}
	if got := b.SquashFrom(4); got != 6 {
		t.Errorf("squashed %d, want 6", got)
	}
	if b.InFlight() != 4 {
		t.Errorf("in flight %d, want 4", b.InFlight())
	}
	if seq, ok := b.OldestSeq(); !ok || seq != 0 {
		t.Errorf("oldest = %d,%v", seq, ok)
	}
}

func TestOutOfOrderInsertKeepsSeqOrder(t *testing.T) {
	b := newTestBackend()
	// Parallel rename inserts fragment i+1's ops before fragment i's
	// stragglers; commit order must still be seq order.
	b.Insert(alu(2))
	b.Insert(alu(0))
	b.Insert(alu(1))
	if b.order[0].Seq != 0 || b.order[1].Seq != 1 || b.order[2].Seq != 2 {
		t.Fatalf("window order: %d %d %d", b.order[0].Seq, b.order[1].Seq, b.order[2].Seq)
	}
}

func TestWindowCapacity(t *testing.T) {
	b := newTestBackend()
	if b.FreeSlots() != 256 {
		t.Fatalf("free slots %d", b.FreeSlots())
	}
	// Fill with a dependence chain so nothing commits quickly.
	for i := uint64(0); i < 256; i++ {
		var op *Op
		if i == 0 {
			op = &Op{Seq: i, Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}}
		} else {
			op = &Op{Seq: i, Inst: isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}}
			op.Producers[0] = i - 1
			op.NProd = 1
		}
		b.Insert(op)
	}
	if b.FreeSlots() != 0 {
		t.Errorf("free slots %d after filling", b.FreeSlots())
	}
}

// refOp and refBackend are the reference model for the scheduler: the
// original window (a map from seq to op for producer lookup, and two full
// scans of the seq-ordered window per cycle — one to issue, one to find the
// oldest resolved mispredict point). It is kept only to check the real
// back-end against, op stream for op stream.
type refOp struct {
	Seq       uint64
	Inst      isa.Inst
	Producers [3]uint64
	NProd     int
	WrongPath bool
	EA        uint64

	mispredict bool
	issued     bool
	done       uint64
}

type refBackend struct {
	cfg       Config
	d         *mem.Cache
	window    map[uint64]*refOp
	order     []*refOp
	committed []uint64 // committed seqs, in order
	wrongExec int64
	barrier   uint64
}

func newRefBackend(cfg Config, d *mem.Cache) *refBackend {
	return &refBackend{cfg: cfg, d: d, window: make(map[uint64]*refOp), barrier: ^uint64(0)}
}

func (b *refBackend) Insert(op *refOp) {
	b.window[op.Seq] = op
	i := len(b.order)
	for i > 0 && b.order[i-1].Seq > op.Seq {
		i--
	}
	b.order = append(b.order, nil)
	copy(b.order[i+1:], b.order[i:])
	b.order[i] = op
}

func (b *refBackend) ready(op *refOp, now uint64) bool {
	for i := 0; i < op.NProd; i++ {
		if p, ok := b.window[op.Producers[i]]; ok {
			if !p.issued || p.done > now {
				return false
			}
		}
	}
	return true
}

func (b *refBackend) Cycle(now uint64) (int, *refOp) {
	var used [isa.NumClasses]int
	for _, op := range b.order {
		if op.issued {
			continue
		}
		class := op.Inst.Classify()
		if used[class] >= b.cfg.FUCounts[class] || !b.ready(op, now) {
			continue
		}
		used[class]++
		op.issued = true
		lat := uint64(op.Inst.Latency())
		switch {
		case op.Inst.IsMem() && !op.WrongPath:
			op.done = b.d.Access(op.EA, op.Inst.IsStore(), now) + lat - 1
		default:
			if op.WrongPath {
				b.wrongExec++
			}
			op.done = now + lat
		}
	}
	var res *refOp
	for _, op := range b.order {
		if op.mispredict && op.issued && op.done <= now {
			res = op
			break
		}
	}
	n := 0
	for n < b.cfg.CommitWidth && len(b.order) > 0 {
		head := b.order[0]
		if head.Seq >= b.barrier || !head.issued || head.done > now || head.WrongPath || head.mispredict {
			break
		}
		b.order = b.order[1:]
		delete(b.window, head.Seq)
		b.committed = append(b.committed, head.Seq)
		n++
	}
	return n, res
}

func (b *refBackend) SquashFrom(seq uint64) int {
	cut := len(b.order)
	for cut > 0 && b.order[cut-1].Seq >= seq {
		cut--
	}
	n := len(b.order) - cut
	for _, op := range b.order[cut:] {
		delete(b.window, op.Seq)
	}
	b.order = b.order[:cut]
	return n
}

// diffOp is one instruction as both schedulers see it.
type diffOp struct {
	n *Op
	r *refOp
}

// diffHarness feeds one random op stream to the back-end and to the
// reference model and checks they agree after every operation.
type diffHarness struct {
	t   *testing.T
	rng *rand.Rand
	// Per-mille odds of each event, drawn per input.
	pOutOfOrder, pMark, pSquash, pReinsert, pBarrier, pIgnoreRes, pStall int

	nb      *Backend
	rb      *refBackend
	ncommit []uint64

	ops     []*diffOp   // every op generated, by seq
	pending [][]*diffOp // fragments (seq-ordered runs) not yet in the window
	nextSeq uint64
}

func newDiffHarness(t *testing.T, seed int64, shape uint32) *diffHarness {
	h := &diffHarness{t: t, rng: rand.New(rand.NewSource(seed))}
	odds := func(shift uint) int { return int(shape>>shift&0xf) * 40 } // 0..600 per mille
	h.pOutOfOrder, h.pMark, h.pSquash = odds(0), odds(4)/4, odds(8)/6
	h.pReinsert, h.pBarrier, h.pIgnoreRes = odds(12), odds(16), odds(20)
	h.pStall = int(shape>>25&0x7) * 20
	cfg := DefaultConfig()
	if shape>>24&1 != 0 {
		cfg.WindowSize = 32 // a small window keeps FreeSlots binding
	}
	h.nb = New(cfg, mem.NewHierarchy(mem.DefaultHierarchyConfig()).L1D)
	h.rb = newRefBackend(cfg, mem.NewHierarchy(mem.DefaultHierarchyConfig()).L1D)
	h.nb.CommitHook = func(op *Op) { h.ncommit = append(h.ncommit, op.Seq) }
	return h
}

func (h *diffHarness) chance(perMille int) bool { return h.rng.Intn(1000) < perMille }

var diffInsts = []isa.Inst{
	{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
	{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
	{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3},
	{Op: isa.OpFadd, Rd: 1, Rs1: 2, Rs2: 3},
	{Op: isa.OpFmul, Rd: 1, Rs1: 2, Rs2: 3},
	{Op: isa.OpLw, Rd: 1, Rs1: 2},
	{Op: isa.OpSw, Rs1: 2, Rs2: 3},
	{Op: isa.OpBne, Rs1: 1, Rs2: 2},
}

// genFragment appends a fragment of fresh ops, with dependences on recent
// (possibly committed, squashed or not yet inserted) older ops.
func (h *diffHarness) genFragment() {
	h.nextSeq += uint64(h.rng.Intn(3)) // seq gaps, as squashed wrong paths leave
	frag := make([]*diffOp, 1+h.rng.Intn(8))
	for i := range frag {
		seq := h.nextSeq
		h.nextSeq++
		n := &Op{Seq: seq, Inst: diffInsts[h.rng.Intn(len(diffInsts))]}
		n.WrongPath = h.chance(100)
		if h.chance(500) {
			n.EA = 0x100000 + uint64(h.rng.Intn(16))*64 // a few hot lines
		} else {
			n.EA = 0x4000 + uint64(h.rng.Intn(64))*32<<10 // one L1D set: misses
		}
		for p := h.rng.Intn(4); p > 0 && seq > 0; p-- {
			back := 1 + uint64(h.rng.Intn(24))
			if back > seq {
				back = seq
			}
			n.Producers[n.NProd] = seq - back
			n.NProd++
		}
		r := &refOp{Seq: n.Seq, Inst: n.Inst, Producers: n.Producers, NProd: n.NProd, WrongPath: n.WrongPath, EA: n.EA}
		d := &diffOp{n: n, r: r}
		for uint64(len(h.ops)) < seq {
			h.ops = append(h.ops, nil)
		}
		h.ops = append(h.ops, d)
		frag[i] = d
	}
	h.pending = append(h.pending, frag)
}

// insertSome delivers a few ops from one pending fragment (the oldest, or
// any of them to model parallel rename), in order within the fragment.
func (h *diffHarness) insertSome() {
	if len(h.pending) == 0 {
		return
	}
	fi := 0
	if h.chance(h.pOutOfOrder) {
		fi = h.rng.Intn(len(h.pending))
	}
	frag := h.pending[fi]
	k := 1 + h.rng.Intn(len(frag))
	for k > 0 && h.nb.FreeSlots() > 0 {
		d := frag[0]
		h.nb.Insert(d.n)
		h.rb.Insert(d.r)
		frag = frag[1:]
		k--
	}
	if len(frag) == 0 {
		h.pending = append(h.pending[:fi], h.pending[fi+1:]...)
	} else {
		h.pending[fi] = frag
	}
}

// mark flags a random op as a mispredict point: in the window, not yet
// inserted, or long gone (a stale flag).
func (h *diffHarness) mark() {
	d := h.ops[h.rng.Intn(len(h.ops))]
	if d == nil {
		return
	}
	d.n.MarkMispredictPoint()
	d.r.mispredict = true
}

// squash removes a random suffix of the window; its ops are either dropped
// (a branch redirect) or reset and queued for re-insertion (live-out
// recovery).
func (h *diffHarness) squash(seq uint64) {
	var gone []*diffOp
	for _, r := range h.rb.order {
		if r.Seq >= seq {
			gone = append(gone, h.ops[r.Seq])
		}
	}
	nn, rn := h.nb.SquashFrom(seq), h.rb.SquashFrom(seq)
	if nn != rn {
		h.t.Fatalf("SquashFrom(%d) removed %d ops, reference %d", seq, nn, rn)
	}
	if len(gone) == 0 || !h.chance(h.pReinsert) {
		return
	}
	for _, d := range gone {
		d.n.ResetExec()
		d.r.issued, d.r.done = false, 0
	}
	h.pending = append([][]*diffOp{gone}, h.pending...)
}

func (h *diffHarness) cycle(now uint64) {
	if h.chance(h.pBarrier) {
		barrier := ^uint64(0)
		for _, frag := range h.pending {
			barrier = min(barrier, frag[0].n.Seq)
		}
		h.nb.SetCommitBarrier(barrier)
		h.rb.barrier = barrier
	} else if h.chance(200) {
		h.nb.SetCommitBarrier(^uint64(0))
		h.rb.barrier = ^uint64(0)
	}
	nc, nres := h.nb.Cycle(now)
	rc, rres := h.rb.Cycle(now)
	if nc != rc {
		h.t.Fatalf("cycle %d: committed %d, reference %d", now, nc, rc)
	}
	switch {
	case (nres == nil) != (rres == nil):
		h.t.Fatalf("cycle %d: resolution %+v, reference %+v", now, nres, rres)
	case nres != nil && (nres.Op.Seq != rres.Seq || nres.Cycle != rres.done):
		h.t.Fatalf("cycle %d: resolved seq %d at %d, reference seq %d at %d",
			now, nres.Op.Seq, nres.Cycle, rres.Seq, rres.done)
	}
	h.check(now)
	if nres != nil && !h.chance(h.pIgnoreRes) {
		// Handle it as the simulator does: squash younger, then let
		// the point commit. Sometimes only clear it (a stale point).
		if h.chance(700) {
			h.squash(nres.Op.Seq + 1)
		}
		h.nb.ClearMispredictPoint(nres.Op)
		rres.mispredict = false
	}
}

// check compares every in-window op's scheduling state and the window's
// occupancy and commit stream.
func (h *diffHarness) check(now uint64) {
	if h.nb.InFlight() != len(h.rb.order) || h.nb.FreeSlots() != h.rb.cfg.WindowSize-len(h.rb.order) {
		h.t.Fatalf("cycle %d: in flight %d, reference %d", now, h.nb.InFlight(), len(h.rb.order))
	}
	for i, r := range h.rb.order {
		n := h.nb.order[h.nb.head+i]
		if n.Seq != r.Seq || n.issued != r.issued || n.done != r.done {
			h.t.Fatalf("cycle %d: window[%d] seq %d issued %v done %d, reference seq %d issued %v done %d",
				now, i, n.Seq, n.issued, n.done, r.Seq, r.issued, r.done)
		}
	}
	if len(h.ncommit) != len(h.rb.committed) {
		h.t.Fatalf("cycle %d: %d commits, reference %d", now, len(h.ncommit), len(h.rb.committed))
	}
	for i := range h.ncommit {
		if h.ncommit[i] != h.rb.committed[i] {
			h.t.Fatalf("cycle %d: commit %d is seq %d, reference %d", now, i, h.ncommit[i], h.rb.committed[i])
		}
	}
	h.ncommit, h.rb.committed = h.ncommit[:0], h.rb.committed[:0]
	if h.nb.WrongPathExecuted() != h.rb.wrongExec {
		h.t.Fatalf("cycle %d: wrong-path executed %d, reference %d", now, h.nb.WrongPathExecuted(), h.rb.wrongExec)
	}
}

func (h *diffHarness) run(cycles uint64) {
	stall := 0 // cycles left in a front-end stall: nothing is inserted
	for now := uint64(0); now < cycles; now++ {
		h.nb.StartCycle(now)
		if stall > 0 {
			stall--
		} else if h.chance(h.pStall) {
			stall = 1 + h.rng.Intn(60)
		} else {
			for g := h.rng.Intn(3); g > 0; g-- {
				h.genFragment()
			}
			for k := h.rng.Intn(4); k > 0; k-- {
				h.insertSome()
			}
		}
		if h.chance(h.pMark) && len(h.ops) > 0 {
			h.mark()
		}
		if h.chance(h.pSquash) && len(h.rb.order) > 0 {
			lo, hi := h.rb.order[0].Seq, h.rb.order[len(h.rb.order)-1].Seq
			h.squash(lo + uint64(h.rng.Int63n(int64(hi-lo+2))))
		}
		h.cycle(now)
	}
}

// FuzzBackendAgainstReference drives the back-end and the reference model
// with the same random op stream — random dependences and FU classes,
// out-of-order fragment inserts, squashes with re-insertion after
// ResetExec, mispredict flags set before and after insert (including on
// ops that already left the window), commit barriers and front-end stalls
// (cycles with no inserts) — and requires
// identical per-cycle issue sets, done cycles, resolutions and commits.
func FuzzBackendAgainstReference(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint32(0x0555555))
		f.Add(seed, uint32(0x1fafafa))
		f.Add(seed, uint32(0x0a0f0f0))
		f.Add(seed, uint32(0x1ffffff))
		f.Add(seed, uint32(0x6555555))
		f.Add(seed, uint32(0xf0a0f0f))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint32) {
		newDiffHarness(t, seed, shape).run(1500)
	})
}
