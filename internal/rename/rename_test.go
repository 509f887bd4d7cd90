package rename

import (
	"math/rand"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

func TestComputeLiveOuts(t *testing.T) {
	insts := Insts{
		{Op: isa.OpAddi, Rd: 1, Rs1: 0, Imm: 5}, // write r1 (not last)
		{Op: isa.OpAddi, Rd: 2, Rs1: 1, Imm: 1}, // write r2 (last)
		{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2},  // write r1 (last)
		{Op: isa.OpSw, Rs1: 30, Rs2: 1, Imm: 0}, // no write
	}
	lo := ComputeLiveOuts(insts)
	if lo.RegMask != (1<<1 | 1<<2) {
		t.Errorf("RegMask = %#x, want r1|r2", lo.RegMask)
	}
	if lo.LastWrite != (1<<1 | 1<<2) {
		t.Errorf("LastWrite = %#x, want instructions 1 and 2", lo.LastWrite)
	}
	if lo.NumRegs() != 2 {
		t.Errorf("NumRegs = %d, want 2", lo.NumRegs())
	}
}

func TestComputeLiveOutsJalLinksR31(t *testing.T) {
	insts := Insts{{Op: isa.OpJal, Imm: 0x400}}
	lo := ComputeLiveOuts(insts)
	if lo.RegMask != 1<<isa.RegLink {
		t.Errorf("RegMask = %#x, want link register", lo.RegMask)
	}
}

func TestCheckPredictionConditions(t *testing.T) {
	insts := Insts{
		{Op: isa.OpAddi, Rd: 1, Rs1: 0, Imm: 5},
		{Op: isa.OpAddi, Rd: 2, Rs1: 1, Imm: 1},
	}
	correct := ComputeLiveOuts(insts)

	if got := CheckPrediction(correct, WritesOf(insts)); got != PredictionCorrect {
		t.Errorf("correct prediction reported %v", got)
	}

	// Condition 1: r2's write not predicted.
	c1 := LiveOuts{RegMask: 1 << 1, LastWrite: 1 << 0}
	if got := CheckPrediction(c1, WritesOf(insts)); got != UnpredictedWrite {
		t.Errorf("condition 1 reported %v", got)
	}

	// Condition 2: r5 predicted live-out but never written (last-write
	// bitmap consistent with actual writes so condition 4 stays quiet).
	c2 := LiveOuts{RegMask: correct.RegMask | 1<<5, LastWrite: correct.LastWrite}
	if got := CheckPrediction(c2, WritesOf(insts)); got != MissingWrite {
		t.Errorf("condition 2 reported %v", got)
	}

	// Condition 3: last write of r1 predicted at instruction 0, but a
	// second write to r1 happens at instruction 2.
	insts3 := Insts{
		{Op: isa.OpAddi, Rd: 1, Rs1: 0, Imm: 5},
		{Op: isa.OpAddi, Rd: 2, Rs1: 1, Imm: 1},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 2},
	}
	c3 := LiveOuts{RegMask: 1<<1 | 1<<2, LastWrite: 1<<0 | 1<<1}
	if got := CheckPrediction(c3, WritesOf(insts3)); got != WriteAfterLast {
		t.Errorf("condition 3 reported %v", got)
	}

	// Condition 4: instruction 1 predicted as a last write of something
	// it doesn't last-write (predict last write at a non-writing slot).
	insts4 := Insts{
		{Op: isa.OpAddi, Rd: 1, Rs1: 0, Imm: 5},
		{Op: isa.OpSw, Rs1: 30, Rs2: 1, Imm: 0},
	}
	c4 := LiveOuts{RegMask: 1 << 1, LastWrite: 1 << 1}
	if got := CheckPrediction(c4, WritesOf(insts4)); got != LastWriteMissing {
		t.Errorf("condition 4 reported %v", got)
	}

	// Condition 4 supersedes condition 2.
	c42 := LiveOuts{RegMask: 1<<1 | 1<<5, LastWrite: 1 << 1}
	if got := CheckPrediction(c42, WritesOf(insts4)); got != LastWriteMissing {
		t.Errorf("4-supersedes-2 reported %v", got)
	}
}

// producerEdges maps each instruction's sources to the index of the
// producing instruction in program order (-1 = architectural value). Two
// rename schemes are equivalent iff they induce identical edges.
func producerEdges(rs []Renamed) [][]int {
	edges := make([][]int, len(rs))
	for i, r := range rs {
		for s := 0; s < r.NSrc; s++ {
			producer := -1
			for j := i - 1; j >= 0; j-- {
				if rs[j].HasDest && rs[j].Dest == r.Srcs[s] {
					producer = j
					break
				}
			}
			edges[i] = append(edges[i], producer)
		}
	}
	return edges
}

// fragmentsOf splits spec's dynamic stream into fragments.
func fragmentsOf(t *testing.T, spec program.Spec, maxInsts int) []*frag.Fragment {
	t.Helper()
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	var stream []frag.Dyn
	var frags []*frag.Fragment
	total := 0
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
		n, id := frag.Split(stream)
		f := &frag.Fragment{ID: id}
		for i := 0; i < n; i++ {
			f.PCs = append(f.PCs, stream[i].PC)
			f.Insts = append(f.Insts, stream[i].Inst)
		}
		frags = append(frags, f)
		stream = stream[n:]
		total += n
	}
	return frags
}

// TestParallelMatchesSequential is the paper's central rename-correctness
// claim: with correct live-out predictions, two-phase parallel rename
// produces exactly the dependence structure of sequential rename.
func TestParallelMatchesSequential(t *testing.T) {
	frags := fragmentsOf(t, program.TestSpec(), 20_000)
	if len(frags) < 100 {
		t.Fatalf("only %d fragments", len(frags))
	}

	seq := NewSequential(NewFreeList(512))
	var seqOut []Renamed
	for _, f := range frags {
		for _, in := range f.Insts {
			seqOut = append(seqOut, seq.Rename(in))
		}
	}

	par := NewParallel(NewFreeList(512))
	// Phase 1 in program order; phase 2 deliberately batched out of
	// order (all phase 1 first for a window of fragments, then phase 2
	// youngest-first) to prove order independence.
	const windowSize = 8
	var parOut []Renamed
	for start := 0; start < len(frags); start += windowSize {
		end := min(start+windowSize, len(frags))
		ctxs := make([]*FragmentRename, 0, windowSize)
		for _, f := range frags[start:end] {
			ctxs = append(ctxs, par.Phase1(ComputeLiveOuts(f.Insts)))
		}
		outs := make([][]Renamed, len(ctxs))
		for i := len(ctxs) - 1; i >= 0; i-- { // youngest first
			rs, kind := par.Phase2(ctxs[i], frags[start+i].Insts)
			if kind != PredictionCorrect {
				t.Fatalf("fragment %d: unexpected mispredict %v with oracle live-outs", start+i, kind)
			}
			outs[i] = rs
		}
		for _, rs := range outs {
			parOut = append(parOut, rs...)
		}
	}

	if len(seqOut) != len(parOut) {
		t.Fatalf("length mismatch: %d vs %d", len(seqOut), len(parOut))
	}
	seqEdges := producerEdges(seqOut)
	parEdges := producerEdges(parOut)
	for i := range seqEdges {
		if len(seqEdges[i]) != len(parEdges[i]) {
			t.Fatalf("instruction %d: edge count %d vs %d", i, len(seqEdges[i]), len(parEdges[i]))
		}
		for s := range seqEdges[i] {
			if seqEdges[i][s] != parEdges[i][s] {
				t.Fatalf("instruction %d source %d: producer %d (seq) vs %d (par)",
					i, s, seqEdges[i][s], parEdges[i][s])
			}
		}
	}
}

func TestPhase2DetectsInjectedMispredictions(t *testing.T) {
	frags := fragmentsOf(t, program.TestSpec(), 5_000)
	par := NewParallel(NewFreeList(512))
	detected := 0
	for _, f := range frags {
		lo := ComputeLiveOuts(f.Insts)
		if lo.RegMask == 0 {
			continue
		}
		// Corrupt: drop one live-out register -> condition 1 at its
		// first write.
		var drop uint64
		for b := uint(0); b < 64; b++ {
			if lo.RegMask&(1<<b) != 0 {
				drop = 1 << b
				break
			}
		}
		bad := LiveOuts{RegMask: lo.RegMask &^ drop, LastWrite: lo.LastWrite}
		fr := par.Phase1(bad)
		_, kind := par.Phase2(fr, f.Insts)
		if kind == PredictionCorrect {
			t.Fatalf("corrupted live-outs not detected for %v", f.ID)
		}
		detected++
	}
	if detected < 50 {
		t.Errorf("only %d corrupted fragments detected", detected)
	}
}

func TestLiveOutPredictorTrainPredict(t *testing.T) {
	lp := NewLiveOutPredictor(LiveOutPredictorConfig{Entries: 64, Ways: 2})
	id := frag.ID{StartPC: 0x2000, NumBr: 1, BrMask: 1}
	if _, ok := lp.Predict(id); ok {
		t.Fatal("cold predict must miss")
	}
	lo := LiveOuts{RegMask: 0xf0, LastWrite: 0x8}
	lp.Train(id, lo)
	got, ok := lp.Predict(id)
	if !ok || got != lo {
		t.Fatalf("predict after train = %+v,%v", got, ok)
	}
}

func TestLiveOutPredictorCapacityPressure(t *testing.T) {
	small := NewLiveOutPredictor(LiveOutPredictorConfig{Entries: 16, Ways: 2})
	large := NewLiveOutPredictor(LiveOutPredictorConfig{Entries: 4096, Ways: 2})
	// 256 distinct fragments in rotation: only the large table holds all.
	ids := make([]frag.ID, 256)
	for i := range ids {
		ids[i] = frag.ID{StartPC: uint64(0x1000 + i*64)}
	}
	lo := LiveOuts{RegMask: 2}
	for pass := 0; pass < 3; pass++ {
		for _, id := range ids {
			small.Train(id, lo)
			large.Train(id, lo)
		}
	}
	sHits, lHits := 0, 0
	for _, id := range ids {
		if _, ok := small.Predict(id); ok {
			sHits++
		}
		if _, ok := large.Predict(id); ok {
			lHits++
		}
	}
	if lHits != len(ids) {
		t.Errorf("large predictor hits %d/%d", lHits, len(ids))
	}
	if sHits >= lHits {
		t.Errorf("small predictor should thrash: %d vs %d", sHits, lHits)
	}
}

// TestLiveOutAccuracyOnSuite calibrates Fig 7's headline: a 2-way 4K-entry
// predictor should be highly accurate (the paper reports ~98% on average).
func TestLiveOutAccuracyOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	var accs []float64
	for _, spec := range program.Suite() {
		frags := fragmentsOf(t, spec, 150_000)
		lp := NewLiveOutPredictor(DefaultLiveOutConfig())
		correct, total := 0, 0
		for _, f := range frags {
			pred, ok := lp.Predict(f.ID)
			if ok && CheckPrediction(pred, WritesOf(f.Insts)) == PredictionCorrect {
				correct++
			}
			total++
			lp.Train(f.ID, ComputeLiveOuts(f.Insts))
		}
		acc := float64(correct) / float64(total)
		accs = append(accs, acc)
		t.Logf("%s: live-out accuracy %.3f over %d fragments", spec.Name, acc, total)
		if acc < 0.65 {
			t.Errorf("%s: live-out accuracy %.3f too low", spec.Name, acc)
		}
	}
	var sum float64
	for _, a := range accs {
		sum += a
	}
	if mean := sum / float64(len(accs)); mean < 0.85 {
		t.Errorf("suite mean live-out accuracy %.3f, want >= 0.85", mean)
	}
}

func TestFreeListAllocatesUnique(t *testing.T) {
	fl := NewFreeList(512)
	seen := make(map[PhysReg]bool)
	for i := 0; i < 1000; i++ {
		r := fl.Alloc()
		if seen[r] {
			t.Fatalf("duplicate allocation %d", r)
		}
		seen[r] = true
	}
	if fl.Allocated() != 1000 {
		t.Errorf("Allocated = %d", fl.Allocated())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestComputeLiveOutsMatchesForwardScan checks ComputeLiveOuts against the
// direct definition on random fragments: a forward scan recording each
// register's last writing position.
func TestComputeLiveOutsMatchesForwardScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		insts := make(Insts, rng.Intn(frag.AbsMaxLen+1))
		for i := range insts {
			insts[i] = isa.Inst{Op: isa.Op(rng.Intn(isa.NumOps)), Rd: isa.Reg(rng.Intn(isa.NumRegs))}
		}
		var want LiveOuts
		var last [isa.NumRegs]int
		for i := range last {
			last[i] = -1
		}
		for i, in := range insts {
			if rd, ok := in.Dest(); ok {
				want.RegMask |= 1 << rd
				last[rd] = i
			}
		}
		for _, i := range last {
			if i >= 0 {
				want.LastWrite |= 1 << i
			}
		}
		if got := ComputeLiveOuts(insts); got != want {
			t.Fatalf("%v: ComputeLiveOuts = %+v, want %+v", insts, got, want)
		}
	}
}
