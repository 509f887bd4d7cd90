// Package artifact is the cross-cell workload reuse layer: a
// content-addressed, concurrency-safe cache of the expensive inputs a sweep
// cell needs — built program images, oracle tapes of the emulator's dynamic
// stream, and memoized cell results — shared read-only across work-stealing
// workers so a multi-config sweep pays each workload's functional cost once
// instead of once per cell.
package artifact

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// TapeSlack is how many instructions beyond a cell's commit budget a tape
// records. The stream's fetch machinery reads ahead of the commit point —
// bounded by the backend window (256), the fragment buffers (16 × 32
// instructions) and the oracle lookahead ring (128) — so the slack covers
// the deepest possible read-ahead many times over. A reader that outruns
// the tape anyway degrades gracefully to live emulation (see Reader.Step).
const TapeSlack = 8192

// IndexStride is how many instructions separate consecutive index blocks in
// a recording. Seek jumps to the nearest preceding block in O(1) and decodes
// at most IndexStride-1 instructions forward, so positioning a reader
// anywhere in a tape costs a constant bounded by the stride — not a replay
// from instruction zero. The stride trades index footprint (32 bytes per
// block, ~0.008 B/inst) against that decode bound.
const IndexStride = 4096

// seekPoint is one index block: the complete replay-cursor state as of the
// instruction whose sequence index is a multiple of IndexStride.
type seekPoint struct {
	pc     uint64 // next PC at this point
	bitPos uint64 // taken bits consumed
	auxOff int    // aux bytes consumed
	prevEA uint64 // last memory effective address seen
}

// Tape is a compact recording of a program's true dynamic instruction
// stream, replayable as an emu.Oracle. Only the dynamic information that
// cannot be reconstructed from the static code image is stored:
//
//   - one bit per conditional branch (taken/not-taken),
//   - a uvarint per indirect jump (the target PC),
//   - a zigzag-varint per memory op (effective-address delta from the
//     previous memory op).
//
// Everything else — opcodes, immediates, fall-through and direct-jump
// targets — replays from the shared Program, so the typical instruction
// costs zero tape bytes and the stream averages well under one byte per
// instruction. Tapes are immutable after Record and safe to share across
// any number of concurrent Readers.
type Tape struct {
	prog    *program.Program
	startPC uint64
	count   uint64 // recorded instructions
	halted  bool   // the recording ended at OpHalt (vs. the budget)

	taken []byte // packed taken bits, one per conditional branch
	aux   []byte // varint stream: indirect targets and EA deltas in program order

	// index holds one seekPoint per IndexStride instructions (index[i] is
	// the cursor state just before instruction i*IndexStride), giving Seek
	// its O(1) block jump.
	index []seekPoint

	// fallbackSteps counts instructions served by the live-emulation
	// fallback across all Readers of this tape (tape exhausted before the
	// consumer was done). sink, when set by the owning cache, aggregates
	// the same count cache-wide.
	fallbackSteps atomic.Int64
	sink          *atomic.Int64
}

// recBatch is how many instructions one batch of the recording pipeline
// carries. It is one index stride, so every batch but a recording's last
// is full and the only seek point a batch can hold is its first
// instruction's.
const recBatch = IndexStride

// recRing is how many batches circulate between Record's two stages.
const recRing = 4

// recordBatch is one unit of work between the emulator and the encoder.
type recordBatch struct {
	dyn  [recBatch]frag.Dyn
	ea   [recBatch]uint64
	n    int
	next uint64 // the emulator's PC after the batch
	err  error  // the emulator's error after the n valid instructions
}

// Record executes p on a fresh emulator for up to maxInsts instructions (or
// until halt) and returns the recording.
//
// Recording is a two-stage pipeline: a goroutine emulates into a fixed ring
// of batches while the caller's goroutine encodes each filled batch (taken
// bits, aux varints, seek index) and hands it back. Emulation is serial by
// nature; the pipeline takes the encoding off its path. The goroutine has
// ended by the time Record returns, on an error or a panic too.
func Record(p *program.Program, maxInsts uint64) (*Tape, error) {
	// A batch is always in exactly one place — free, being filled, full or
	// being encoded — so channels the size of the ring never block a send.
	ring := make([]recordBatch, recRing)
	free := make(chan *recordBatch, recRing)
	full := make(chan *recordBatch, recRing)
	for i := range ring {
		free <- &ring[i]
	}
	m := emu.New(p)
	// An emulator panic is handed to the caller's goroutine and raised
	// there, as when the caller emulated itself, so callers that recover
	// (the sweep's per-cell isolation) still can.
	var panicked any
	go func() {
		defer close(full)
		defer func() { panicked = recover() }()
		for left := maxInsts; left > 0 && !m.Halted(); {
			b := <-free
			b.n, b.err = m.Fill(b.dyn[:min(left, recBatch)], b.ea[:])
			b.next = m.PC()
			left -= uint64(b.n)
			full <- b
			if b.err != nil {
				return
			}
		}
	}()

	t := &Tape{prog: p, startPC: p.EntryPC}
	var enc tapeEncoder
	var err error
	for b := range full {
		if err == nil {
			enc.add(t, b.dyn[:b.n], b.ea[:b.n], b.next)
			err = b.err
		}
		free <- b
	}
	if panicked != nil {
		panic(panicked)
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: recording %s: %w", p.Name, err)
	}
	enc.flush(t)
	t.halted = m.Halted()
	return t, nil
}

// tapeEncoder is Record's encoding stage: the recording cursor between
// batches.
type tapeEncoder struct {
	bits   uint64 // taken bits recorded
	word   uint64 // taken bits not yet written, the oldest in bit 0
	prevEA uint64
}

// add appends one batch of the dynamic stream to t. next is the PC after
// the batch's last instruction, the target of an indirect jump there.
func (e *tapeEncoder) add(t *Tape, dyn []frag.Dyn, ea []uint64, next uint64) {
	if len(dyn) == 0 {
		return
	}
	ea = ea[:len(dyn)]
	if t.count%IndexStride == 0 {
		t.index = append(t.index, seekPoint{
			pc: dyn[0].PC, bitPos: e.bits, auxOff: len(t.aux), prevEA: e.prevEA,
		})
	}
	// One varint per instruction at most: reserve the batch's worst case
	// once and write in place.
	aux := slices.Grow(t.aux, len(dyn)*binary.MaxVarintLen64)
	for i := range dyn {
		switch in := dyn[i].Inst; tapeKinds[in.Op] {
		case tapeBit:
			if dyn[i].Taken {
				e.word |= 1 << (e.bits & 63)
			}
			if e.bits++; e.bits&63 == 0 {
				t.taken = binary.LittleEndian.AppendUint64(t.taken, e.word)
				e.word = 0
			}
		case tapeTarget:
			target := next
			if i+1 < len(dyn) {
				target = dyn[i+1].PC
			}
			aux = binary.AppendUvarint(aux, target)
		case tapeEA:
			aux = binary.AppendVarint(aux, int64(ea[i])-int64(e.prevEA))
			e.prevEA = ea[i]
		}
	}
	t.aux = aux
	t.count += uint64(len(dyn))
}

// flush writes the last, partial word of taken bits, byte by byte.
func (e *tapeEncoder) flush(t *Tape) {
	for b := e.bits & 63; b > 0; b -= min(b, 8) {
		t.taken = append(t.taken, byte(e.word))
		e.word >>= 8
	}
}

// What a tape stores for an instruction, by opcode.
const (
	tapeNothing = iota // replays from the code image alone
	tapeBit            // a conditional branch: one taken bit
	tapeTarget         // an indirect jump: its target PC, a uvarint
	tapeEA             // a memory op: its EA delta, a zigzag varint
)

var tapeKinds = func() (k [256]uint8) {
	for op := range isa.NumOps {
		switch in := (isa.Inst{Op: isa.Op(op)}); {
		case in.IsCondBranch():
			k[op] = tapeBit
		case in.IsIndirect():
			k[op] = tapeTarget
		case in.IsMem():
			k[op] = tapeEA
		}
	}
	return k
}()

// Len returns the number of recorded instructions.
func (t *Tape) Len() uint64 { return t.count }

// Halted reports whether the recording reached OpHalt (as opposed to the
// recording budget).
func (t *Tape) Halted() bool { return t.halted }

// Bytes returns the tape's encoded payload size (excluding the seek index;
// see IndexBytes).
func (t *Tape) Bytes() int64 { return int64(len(t.taken) + len(t.aux)) }

// IndexBytes returns the resident footprint of the tape's seek index.
func (t *Tape) IndexBytes() int64 { return int64(len(t.index)) * 32 }

// FallbackSteps returns how many instructions Readers of this tape have
// served via the live-emulation fallback.
func (t *Tape) FallbackSteps() int64 { return t.fallbackSteps.Load() }

// NewReader returns a fresh replay cursor positioned at the program entry.
// Each simulation needs its own Reader; Readers of one tape may run
// concurrently.
func (r *Tape) NewReader() *Reader {
	return &Reader{t: r, pc: r.startPC}
}

// Reader replays a Tape as an emu.Oracle, reproducing the live emulator's
// DynInst stream bit for bit. If a consumer reads past the recorded end of
// a truncated (non-halted) tape, the Reader transparently falls back to a
// fresh emulator fast-forwarded to the tape's end, so correctness never
// depends on the recording budget.
type Reader struct {
	t      *Tape
	pc     uint64
	seq    uint64
	bitPos uint64 // next taken-bit index
	auxOff int    // next aux byte
	prevEA uint64
	halted bool

	live     *emu.Machine // non-nil once the fallback engaged
	fallback int64        // instructions this reader served via the fallback
}

// Halted reports whether the replayed program has executed OpHalt.
func (r *Reader) Halted() bool { return r.halted }

// FallbackSteps returns how many instructions this reader (as opposed to the
// whole tape — see Tape.FallbackSteps) served through the live-emulation
// fallback, for per-run metrics and span annotations.
func (r *Reader) FallbackSteps() int64 { return r.fallback }

// Pos returns the sequence index of the next instruction Step will produce.
func (r *Reader) Pos() uint64 { return r.seq }

// Seek positions the reader so the next Step produces the instruction with
// sequence index seq, replaying neither the simulator nor the emulator
// through the skipped region: it jumps to the nearest preceding index block
// and decodes at most IndexStride-1 instructions forward — a zero-allocation
// fast-forward. Seeking backward is allowed (the cursor state is rebuilt
// from the block, not rewound).
//
// Seeking at or past the end of a halted recording leaves the reader at
// end-of-stream (Halted reports true). Seeking past the end of a truncated
// (non-halted) recording falls back to a fresh emulator fast-forwarded to
// seq, exactly as Step's past-the-end fallback would.
func (r *Reader) Seek(seq uint64) error {
	t := r.t
	if seq >= t.count && !t.halted {
		// Beyond a truncated recording: the tape cannot reconstruct this
		// region, so engage the live fallback immediately, fast-forwarded
		// to the target.
		live := emu.New(t.prog)
		if _, err := live.Run(seq); err != nil {
			return fmt.Errorf("artifact: seek fallback fast-forward: %w", err)
		}
		r.live = live
		r.seq = seq
		r.halted = live.Halted()
		return nil
	}
	if seq > t.count {
		seq = t.count // halted recording: clamp to end-of-stream
	}
	r.live = nil
	r.halted = false
	b := seq / IndexStride
	if n := uint64(len(t.index)); b >= n {
		// seq == count on an exact multiple of the stride records no
		// trailing block; decode forward from the last one.
		b = n - 1
	}
	sp := t.index[b]
	r.pc, r.seq = sp.pc, b*IndexStride
	r.bitPos, r.auxOff, r.prevEA = sp.bitPos, sp.auxOff, sp.prevEA
	var dyn [256]frag.Dyn
	var ea [256]uint64
	for r.seq < seq && !r.halted {
		k := min(uint64(len(dyn)), seq-r.seq)
		if _, err := r.decode(dyn[:k], ea[:k]); err != nil {
			return fmt.Errorf("artifact: seek decode at seq %d: %w", r.seq, err)
		}
	}
	return nil
}

// Step returns the next instruction of the true dynamic stream.
func (r *Reader) Step() (emu.DynInst, error) {
	if r.halted {
		return emu.DynInst{}, emu.ErrHalted
	}
	if r.live != nil || r.seq >= r.t.count {
		return r.stepLive()
	}
	var dyn [1]frag.Dyn
	var ea [1]uint64
	seq := r.seq
	if _, err := r.decode(dyn[:], ea[:]); err != nil {
		return emu.DynInst{}, err
	}
	d := dyn[0]
	return emu.DynInst{Seq: seq, PC: d.PC, Inst: d.Inst, NextPC: r.pc, Taken: d.Taken, EA: ea[0]}, nil
}

// Fill decodes the next instructions into dyn and ea (see emu.Oracle.Fill):
// straight from the tape while it lasts, then through the live fallback.
func (r *Reader) Fill(dyn []frag.Dyn, ea []uint64) (int, error) {
	ea = ea[:len(dyn)]
	n := 0
	if !r.halted && r.live == nil && r.seq < r.t.count {
		k := min(uint64(len(dyn)), r.t.count-r.seq)
		var err error
		if n, err = r.decode(dyn[:k], ea[:k]); err != nil {
			return n, err
		}
	}
	for ; n < len(dyn) && !r.halted; n++ {
		d, err := r.stepLive()
		if err != nil {
			return n, err
		}
		dyn[n] = frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken}
		ea[n] = d.EA
	}
	return n, nil
}

// decode replays up to len(dyn) recorded instructions (the caller keeps it
// within the recording), stopping after OpHalt. The cursor lives in locals
// for the loop and is written back once; on an error it stays at the
// failing instruction, as Step's did.
func (r *Reader) decode(dyn []frag.Dyn, ea []uint64) (int, error) {
	t := r.t
	pc, bitPos, auxOff, prevEA := r.pc, r.bitPos, r.auxOff, r.prevEA
	halted := false
	var err error
	n := 0
decode:
	for ; n < len(dyn) && !halted; n++ {
		in, ok := t.prog.InstAt(pc)
		if !ok {
			err = fmt.Errorf("artifact: replay PC %#x outside code image", pc)
			break
		}
		next := pc + isa.InstBytes
		taken := false
		var addr uint64
		switch {
		case in.IsCondBranch():
			if t.taken[bitPos>>3]>>(bitPos&7)&1 != 0 {
				taken = true
				next = uint64(int64(pc) + isa.InstBytes + int64(in.Imm)*isa.InstBytes)
			}
			bitPos++
		case in.IsDirectJump():
			next = uint64(in.Imm) * isa.InstBytes
		case in.IsIndirect():
			v, k := binary.Uvarint(t.aux[auxOff:])
			if k <= 0 {
				err = fmt.Errorf("artifact: corrupt tape (indirect target at seq %d)", r.seq+uint64(n))
				break decode
			}
			auxOff += k
			next = v
		case in.IsMem():
			delta, k := binary.Varint(t.aux[auxOff:])
			if k <= 0 {
				err = fmt.Errorf("artifact: corrupt tape (EA delta at seq %d)", r.seq+uint64(n))
				break decode
			}
			auxOff += k
			addr = uint64(int64(prevEA) + delta)
			prevEA = addr
		case in.Op == isa.OpHalt:
			next = pc
			halted = true
		}
		dyn[n] = frag.Dyn{PC: pc, Inst: in, Taken: taken}
		ea[n] = addr
		pc = next
	}
	r.pc, r.bitPos, r.auxOff, r.prevEA = pc, bitPos, auxOff, prevEA
	r.halted = halted
	r.seq += uint64(n)
	return n, err
}

// stepLive serves instructions past the recorded end: a fresh emulator is
// fast-forwarded through the recorded prefix once, then stepped live.
func (r *Reader) stepLive() (emu.DynInst, error) {
	if r.live == nil {
		r.live = emu.New(r.t.prog)
		if _, err := r.live.Run(r.t.count); err != nil {
			return emu.DynInst{}, fmt.Errorf("artifact: tape fallback fast-forward: %w", err)
		}
	}
	d, err := r.live.Step()
	if err != nil {
		return d, err
	}
	if r.live.Halted() {
		r.halted = true
	}
	r.seq = d.Seq + 1
	r.fallback++
	r.t.fallbackSteps.Add(1)
	if r.t.sink != nil {
		r.t.sink.Add(1)
	}
	return d, nil
}

var _ emu.Oracle = (*Reader)(nil)
