package bpred

import (
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
)

func TestHistoryPushAndRecent(t *testing.T) {
	var h History
	if h.recent(0) != 0 {
		t.Error("empty history must read zero")
	}
	for i := 1; i <= 20; i++ {
		h.Push(uint64(i))
	}
	for i := 0; i < maxDepth; i++ {
		want := uint64(20 - i)
		if got := h.recent(i); got != want {
			t.Errorf("recent(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestHistoryIsValueType(t *testing.T) {
	var h History
	h.Push(1)
	h.Push(2)
	cp := h // checkpoint
	h.Push(3)
	if cp.recent(0) != 2 {
		t.Error("checkpoint mutated by later push")
	}
	if h.recent(0) != 3 {
		t.Error("original lost later push")
	}
}

func TestFoldStaysInRange(t *testing.T) {
	for _, bits := range []uint{1, 7, 9, 16} {
		for _, v := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
			f := newFolder(bits)
			if f := f.fold(v); f >= 1<<bits {
				t.Errorf("fold(%#x,%d) = %#x out of range", v, bits, f)
			}
		}
	}
}

func TestPredictorLearnsRepeatingSequence(t *testing.T) {
	p := New(Config{PrimaryEntries: 1024, SecondaryEntries: 256})
	seq := []frag.ID{
		{StartPC: 0x1000, NumBr: 1, BrMask: 1},
		{StartPC: 0x1040, NumBr: 2, BrMask: 2},
		{StartPC: 0x1100},
		{StartPC: 0x1200, NumBr: 1},
	}
	var h History
	// Train a few passes.
	for pass := 0; pass < 8; pass++ {
		for _, id := range seq {
			p.Update(&h, id)
			h.Push(id.Key())
		}
	}
	// The predictor must now be essentially perfect on this loop.
	correct := 0
	for pass := 0; pass < 4; pass++ {
		for _, id := range seq {
			if pred := p.Predict(&h); pred.Valid && pred.ID == id {
				correct++
			}
			p.Update(&h, id)
			h.Push(id.Key())
		}
	}
	if correct < 15 {
		t.Errorf("learned-sequence accuracy %d/16", correct)
	}
}

func TestPredictorDisambiguatesByPath(t *testing.T) {
	// Two contexts A->X and B->Y where X and Y follow the same immediate
	// predecessor C. Only path history can tell them apart.
	p := New(Config{PrimaryEntries: 4096, SecondaryEntries: 1024, DOLC: DefaultDOLC()})
	a := frag.ID{StartPC: 0xa000}
	b := frag.ID{StartPC: 0xb000}
	c := frag.ID{StartPC: 0xc000}
	x := frag.ID{StartPC: 0x1000}
	y := frag.ID{StartPC: 0x2000}

	var h History
	feed := func(ids ...frag.ID) {
		for _, id := range ids {
			p.Update(&h, id)
			h.Push(id.Key())
		}
	}
	for i := 0; i < 20; i++ {
		feed(a, c, x)
		feed(b, c, y)
	}
	// Keep streaming the same pattern and check the prediction made at
	// each post-C point. The most recent fragment is always C, so only
	// deeper path history can separate the two cases; a predictor keyed
	// on the last fragment alone would be at most 50% correct here.
	okX, okY := 0, 0
	for i := 0; i < 10; i++ {
		feed(a)
		feed(c)
		if pred := p.Predict(&h); pred.Valid && pred.ID == x {
			okX++
		}
		feed(x)
		feed(b)
		feed(c)
		if pred := p.Predict(&h); pred.Valid && pred.ID == y {
			okY++
		}
		feed(y)
	}
	if okX < 8 || okY < 8 {
		t.Errorf("path disambiguation: X %d/10, Y %d/10", okX, okY)
	}
}

// fragmentStream replays a benchmark's true fragment sequence into fn.
func fragmentStream(t *testing.T, spec program.Spec, maxInsts int, fn func(frag.ID)) {
	t.Helper()
	p, err := program.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	var stream []frag.Dyn
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
			return
		}
		n, id := frag.Split(stream)
		fn(id)
		stream = stream[n:]
		total += n
	}
}

// TestSuitePredictability calibrates fragment-predictor accuracy on the
// suite: the paper's front-ends live around 80-95% next-fragment accuracy
// (trace cache hit rates average 87%). Workloads outside a broad band would
// distort every downstream experiment.
func TestSuitePredictability(t *testing.T) {
	if testing.Short() {
		t.Skip("suite calibration is not short")
	}
	for _, spec := range program.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p := New(DefaultConfig())
			var h History
			fragmentStream(t, spec, 300_000, func(id frag.ID) {
				p.Update(&h, id)
				h.Push(id.Key())
			})
			acc, n := p.Accuracy()
			if n < 1000 {
				t.Fatalf("only %d fragments", n)
			}
			if acc < 0.55 || acc > 0.999 {
				t.Errorf("%s: fragment accuracy %.3f outside [0.55,0.999]", spec.Name, acc)
			}
			t.Logf("%s: fragment prediction accuracy %.3f over %d fragments", spec.Name, acc, n)
		})
	}
}

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(12)
	// Strongly biased branch: ~90% taken in a fixed pattern.
	for i := 0; i < 2000; i++ {
		g.Update(0x4000, i%10 != 0)
	}
	if acc := g.Accuracy(); acc < 0.8 {
		t.Errorf("gshare accuracy %.3f on 90%% biased branch", acc)
	}
}

func TestGsharePerfectOnAlternation(t *testing.T) {
	g := NewGshare(12)
	for i := 0; i < 4000; i++ {
		g.Update(0x4000, i%2 == 0)
	}
	if acc := g.Accuracy(); acc < 0.9 {
		t.Errorf("gshare accuracy %.3f on alternating branch, want >0.9", acc)
	}
}

func TestPredictorSizeMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	// Bigger tables should not be (much) worse on a large-footprint
	// benchmark (Fig 10's premise).
	spec, err := program.SpecByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	accAt := func(entries int) float64 {
		p := New(Config{PrimaryEntries: entries, SecondaryEntries: entries / 4})
		var h History
		fragmentStream(t, spec, 200_000, func(id frag.ID) {
			p.Update(&h, id)
			h.Push(id.Key())
		})
		acc, _ := p.Accuracy()
		return acc
	}
	small, large := accAt(1<<12), accAt(1<<16)
	t.Logf("gcc: 4K entries %.3f, 64K entries %.3f", small, large)
	if large < small-0.02 {
		t.Errorf("accuracy degraded with larger table: %.3f -> %.3f", small, large)
	}
}
