package artifact

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/program"
)

// fillTapeSet is the decoder differential's corpus: every suite benchmark
// recorded short of its end (so reads run on into the live fallback), plus
// the halting miniature benchmark recorded to its halt.
var fillTapeSet = sync.OnceValues(func() ([]*Tape, error) {
	specs := append(program.Suite(), program.TestSpec())
	tapes := make([]*Tape, 0, len(specs))
	for i, spec := range specs {
		p, err := program.Build(spec)
		if err != nil {
			return nil, err
		}
		budget := uint64(2*IndexStride + 77)
		if i == len(specs)-1 {
			budget = 1_000_000 // the test spec halts well inside this
		}
		tape, err := Record(p, budget)
		if err != nil {
			return nil, err
		}
		tapes = append(tapes, tape)
	}
	return tapes, nil
})

func fillTapes(tb testing.TB) []*Tape {
	tapes, err := fillTapeSet()
	if err != nil {
		tb.Fatal(err)
	}
	if !tapes[len(tapes)-1].Halted() {
		tb.Fatal("the test spec's recording should end at its halt")
	}
	return tapes
}

// corrupted returns a copy of t whose aux byte at off is replaced by v. The
// taken bits are padded so a stream the corruption sends down another path
// still finds a bit for every branch it decodes: the corruption may
// misdirect the replay or fail it, but never run it off the end of a slice.
func corrupted(t *Tape, off int, v byte) *Tape {
	c := &Tape{prog: t.prog, startPC: t.startPC, count: t.count, halted: t.halted, index: t.index}
	c.aux = append([]byte(nil), t.aux...)
	c.aux[off%len(c.aux)] = v
	c.taken = make([]byte, t.count/8+1)
	copy(c.taken, t.taken)
	return c
}

// fillMatchesStep decodes the same stream twice — once through Step, once
// through Fill in batches whose sizes cycle through sizes — and requires the
// same instructions, effective addresses, halt point, and failing
// instruction with the same error. It stops after about total instructions.
func fillMatchesStep(t *testing.T, step, fill stepOracle, sizes []byte, total int) {
	t.Helper()
	dyn := make([]frag.Dyn, 256)
	ea := make([]uint64, 256)
	var seq uint64
	first := true
	for i, done := 0, 0; done < total && i < total; i++ {
		k := 1
		if len(sizes) > 0 {
			k = int(sizes[i%len(sizes)])
		}
		for j := range ea {
			ea[j] = ^uint64(0) // Fill must write every EA it reports
		}
		n, err := fill.Fill(dyn[:k], ea[:k])
		if n < 0 || n > k {
			t.Fatalf("Fill(%d) decoded %d", k, n)
		}
		for j := 0; j < n; j++ {
			d, serr := step.Step()
			if serr != nil {
				t.Fatalf("Step failed (%v) on the %dth instruction of a batch Fill decoded", serr, j)
			}
			if !first && d.Seq != seq+1 {
				t.Fatalf("Step seq %d after %d", d.Seq, seq)
			}
			seq, first = d.Seq, false
			if got := (frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken}); dyn[j] != got || ea[j] != d.EA {
				t.Fatalf("seq %d: Fill %+v ea %#x, Step %+v", d.Seq, dyn[j], ea[j], d)
			}
		}
		if fill.Halted() != step.Halted() {
			t.Fatalf("after seq %d: halted Fill=%v Step=%v", seq, fill.Halted(), step.Halted())
		}
		if fr, ok := fill.(*Reader); ok {
			if sr := step.(*Reader); fr.Pos() != sr.Pos() {
				t.Fatalf("Pos Fill=%d Step=%d", fr.Pos(), sr.Pos())
			}
		}
		if err != nil {
			_, serr := step.Step()
			if serr == nil || serr.Error() != err.Error() {
				t.Fatalf("after seq %d: Fill failed with %v, Step with %v", seq, err, serr)
			}
			return
		}
		if n < k {
			if !fill.Halted() {
				t.Fatalf("Fill(%d) stopped at %d without halting", k, n)
			}
			if _, serr := step.Step(); !errors.Is(serr, emu.ErrHalted) {
				t.Fatalf("Step after halt: %v", serr)
			}
			if n, err := fill.Fill(dyn[:1], ea[:1]); n != 0 || err != nil {
				t.Fatalf("Fill after halt = %d, %v; want 0, nil", n, err)
			}
			return
		}
		done += n
	}
}

// checkFill runs the differential on one tape: two readers sought to at,
// the aux stream optionally corrupted, and — from program entry — the live
// emulator's own Fill against its Step.
func checkFill(t *testing.T, tape *Tape, at uint64, sizes []byte, corrupt bool, off int, v byte) {
	t.Helper()
	at %= tape.Len() + 2*IndexStride // past the end too, within a bounded fast-forward
	if corrupt {
		tape = corrupted(tape, off, v)
	}
	step, fill := tape.NewReader(), tape.NewReader()
	serr, ferr := step.Seek(at), fill.Seek(at)
	if (serr == nil) != (ferr == nil) {
		t.Fatalf("Seek(%d): %v vs %v", at, serr, ferr)
	}
	if serr == nil {
		fillMatchesStep(t, step, fill, sizes, 3*IndexStride)
	}
	if !corrupt {
		fillMatchesStep(t, emu.New(tape.prog), emu.New(tape.prog), sizes, IndexStride)
	}
}

// TestFillMatchesStep is the fixed-input pass of the batch-decoder
// differential: every corpus tape, decoded from its start and after a seek,
// in batches of one, of odd sizes and of the full buffer, plus corrupt aux
// bytes at several offsets.
func TestFillMatchesStep(t *testing.T) {
	tapes := fillTapes(t)
	sizes := [][]byte{{1}, {7, 0, 200, 31}, {255}}
	for i, tape := range tapes {
		for _, at := range []uint64{0, IndexStride + 11, tape.Len() - 3} {
			for _, sz := range sizes {
				checkFill(t, tape, at, sz, false, 0, 0)
			}
		}
		for _, off := range []int{0, 5, 333, len(tape.aux) / 2} {
			for _, v := range []byte{0xff, 0x80, 0x01} {
				checkFill(t, tape, uint64(i*97), []byte{13, 64}, true, off, v)
			}
		}
	}
}

// FuzzFillMatchesStep: batch decode (Fill) gives exactly the Step stream —
// across every suite tape, halted and truncated recordings (the live
// fallback), arbitrary batch bounds, decoding after Seek, and corrupt aux
// bytes, which must fail at the same instruction with the same error.
func FuzzFillMatchesStep(f *testing.F) {
	tapes := fillTapes(f)
	f.Add(uint8(0), uint64(0), []byte{1}, false, uint32(0), byte(0))
	f.Add(uint8(3), uint64(IndexStride-1), []byte{255, 3}, false, uint32(0), byte(0))
	f.Add(uint8(len(tapes)-1), uint64(0), []byte{64}, false, uint32(0), byte(0))
	f.Add(uint8(5), uint64(100), []byte{9, 200}, true, uint32(17), byte(0xff))
	f.Add(uint8(7), uint64(3*IndexStride), []byte{33}, false, uint32(0), byte(0))
	f.Fuzz(func(t *testing.T, which uint8, at uint64, sizes []byte, corrupt bool, off uint32, v byte) {
		tape := tapes[int(which)%len(tapes)]
		checkFill(t, tape, at, sizes, corrupt, int(off), v)
	})
}

// BenchmarkTapeDecode measures tape replay per instruction, one Step at a
// time and in Fill batches of the stream's and the warmer's sizes.
func BenchmarkTapeDecode(b *testing.B) {
	spec, err := program.SpecByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	const insts = 1 << 20
	tape, err := Record(p, insts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Step", func(b *testing.B) {
		r := tape.NewReader()
		for i := 0; i < b.N; i++ {
			if r.Pos() == insts {
				r.Seek(0)
			}
			if _, err := r.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, batch := range []int{128, 1024} {
		b.Run(fmt.Sprintf("Fill%d", batch), func(b *testing.B) {
			r := tape.NewReader()
			dyn := make([]frag.Dyn, batch)
			ea := make([]uint64, batch)
			for i := 0; i < b.N; i += batch {
				if r.Pos()+uint64(batch) > insts {
					r.Seek(0)
				}
				if _, err := r.Fill(dyn, ea); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
