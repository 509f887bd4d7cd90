package bpred

import (
	"math/rand"
	"testing"
)

// foldLoop is the reference XOR-fold: one step per bits-wide chunk.
func foldLoop(v uint64, bits uint) uint64 {
	mask := uint64(1)<<bits - 1
	r := uint64(0)
	for v != 0 {
		r ^= v & mask
		v >>= bits
	}
	return r
}

// refPrimaryIndex is the reference DOLC hash: Current bits from the newest
// ID, Last bits from the next, Older bits from each remaining one,
// concatenated and folded to the table size.
func refPrimaryIndex(p *TracePredictor, h *History) int {
	d := p.cfg.DOLC
	var acc uint64
	var width uint
	push := func(v uint64, bits uint) {
		acc ^= (v & (1<<bits - 1)) << (width % 48)
		width += bits
	}
	push(foldLoop(h.recent(0), d.Current), d.Current)
	if d.Depth > 1 {
		push(foldLoop(h.recent(1), d.Last), d.Last)
	}
	for i := 2; i < d.Depth; i++ {
		push(foldLoop(h.recent(i), d.Older), d.Older)
	}
	return int(foldLoop(acc, tableBits(len(p.primary))))
}

func refSecondaryIndex(p *TracePredictor, h *History) int {
	return int(foldLoop(h.recent(0), tableBits(len(p.secondary))))
}

// randKey draws keys of every density: full 64-bit values, fragment-ID
// shaped keys and sparse ones.
func randKey(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return rng.Uint64() >> uint(rng.Intn(64))
	case 1:
		return uint64(1) << uint(rng.Intn(64))
	default:
		return rng.Uint64()
	}
}

func TestFoldMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []uint64{0, 1, ^uint64(0), 1 << 63, 0x8000000000000001}
	for len(keys) < 1<<20 {
		keys = append(keys, randKey(rng))
	}
	for bits := uint(1); bits <= 20; bits++ {
		f := newFolder(bits)
		for _, k := range keys {
			if got, want := f.fold(k), foldLoop(k, bits); got != want {
				t.Fatalf("fold(%#x, %d) = %#x, want %#x", k, bits, got, want)
			}
		}
	}
}

func TestIndicesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfgs := []Config{DefaultConfig(), {PrimaryEntries: 1024, SecondaryEntries: 256}}
	for len(cfgs) < 40 {
		cfgs = append(cfgs, Config{
			PrimaryEntries:   1 << (4 + rng.Intn(14)),
			SecondaryEntries: 1 << (2 + rng.Intn(14)),
			DOLC: DOLC{
				Depth:   1 + rng.Intn(maxDepth+2), // includes depths New clamps
				Older:   uint(1 + rng.Intn(12)),
				Last:    uint(1 + rng.Intn(16)),
				Current: uint(1 + rng.Intn(20)),
			},
		})
	}
	for _, cfg := range cfgs {
		p := New(cfg)
		var h History
		for i := 0; i < 5000; i++ {
			if got, want := p.primaryIndex(&h), refPrimaryIndex(p, &h); got != want {
				t.Fatalf("%+v after %d pushes: primaryIndex = %d, want %d", cfg, i, got, want)
			}
			if got, want := p.secondaryIndex(&h), refSecondaryIndex(p, &h); got != want {
				t.Fatalf("%+v after %d pushes: secondaryIndex = %d, want %d", cfg, i, got, want)
			}
			if rng.Intn(50) == 0 {
				h = History{} // restart: exercise partly filled histories
			}
			h.Push(randKey(rng))
		}
	}
}
