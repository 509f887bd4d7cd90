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

// refPrimaryIndex is the reference DOLC hash of cfg as given to New:
// Current bits from the newest ID, Last bits from the next, Older bits from
// each remaining one, concatenated and folded to the table size. IDs deeper
// than the history holds read as zero, so it needs no Depth clamp.
func refPrimaryIndex(cfg Config, h *History) int {
	d := cfg.DOLC
	if d.Depth <= 0 {
		d = DefaultDOLC()
	}
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
	return int(foldLoop(acc, tableBits(ceilPow2(cfg.PrimaryEntries))))
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
			if got, want := p.primaryIndex(&h), refPrimaryIndex(cfg, &h); got != want {
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

// TestPushFoldsMatchReference hashes histories built through the
// predictor's folding Push — including checkpoint copies, restored
// snapshots and histories handed between predictors — against the
// reference DOLC hash.
func TestPushFoldsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfgs := []Config{DefaultConfig(), {PrimaryEntries: 1024, SecondaryEntries: 256,
		DOLC: DOLC{Depth: maxDepth + 2, Older: maxFoldBits, Last: 1, Current: maxFoldBits}}}
	for len(cfgs) < 20 {
		cfgs = append(cfgs, Config{
			PrimaryEntries:   1 << (4 + rng.Intn(14)),
			SecondaryEntries: 1 << (2 + rng.Intn(14)),
			DOLC: DOLC{
				Depth:   1 + rng.Intn(maxDepth+2),
				Older:   uint(1 + rng.Intn(12)),
				Last:    uint(1 + rng.Intn(16)),
				Current: uint(1 + rng.Intn(20)),
			},
		})
	}
	for _, cfg := range cfgs {
		p, other := New(cfg), New(cfg)
		var h, cp History
		for i := 0; i < 5000; i++ {
			if got, want := p.primaryIndex(&h), refPrimaryIndex(cfg, &h); got != want {
				t.Fatalf("%+v after %d pushes: primaryIndex = %d, want %d", cfg, i, got, want)
			}
			switch rng.Intn(60) {
			case 0:
				cp = h // checkpoint
			case 1:
				h = cp // restore
			case 2:
				var err error
				if _, err = h.LoadState(cp.AppendState(nil)); err != nil {
					t.Fatal(err)
				}
			case 3:
				other.Push(&h, randKey(rng)) // folded by another predictor
			}
			key := randKey(rng)
			if rng.Intn(3) == 0 {
				key = p.lastKey // the second push of a correct-path fragment
			}
			p.Push(&h, key)
		}
	}
}

// TestNewPanicsOnWideDOLCField: a field wider than a History.folds slot is
// rejected rather than narrowed, which would silently change the index.
func TestNewPanicsOnWideDOLCField(t *testing.T) {
	for _, d := range []DOLC{
		{Depth: 9, Older: maxFoldBits + 1, Last: 7, Current: 9},
		{Depth: 9, Older: 4, Last: 30, Current: 9},
		{Depth: 9, Older: 4, Last: 7, Current: 40},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with DOLC %+v did not panic", d)
				}
			}()
			New(Config{PrimaryEntries: 1024, SecondaryEntries: 256, DOLC: d})
		}()
	}
}
