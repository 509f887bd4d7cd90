package emu

import (
	"errors"
	"testing"

	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// refState is an independent reference interpreter for the synthetic ISA,
// deliberately written in a different style from Machine (word-addressed map
// memory instead of byte segments, flat next-PC computation) so the fuzz
// differential catches semantic drift in either implementation.
type refState struct {
	pc     uint64
	regs   [isa.NumIntRegs]uint32
	fp     [isa.NumFPRegs]float64
	mem    map[uint64]uint32 // word-addressed; zero default matches zero-init segments
	halted bool
}

func newRef(p *program.Program) *refState {
	return &refState{pc: p.EntryPC, mem: make(map[uint64]uint32)}
}

func (r *refState) readInt(reg isa.Reg) uint32 {
	if reg == isa.RegZero || reg >= isa.FPBase {
		return 0
	}
	return r.regs[reg]
}

func (r *refState) writeInt(reg isa.Reg, v uint32) {
	if reg != isa.RegZero {
		r.regs[reg] = v
	}
}

// step executes one instruction. It returns false when the interpreter is
// stuck (PC outside the code image, or an invalid opcode) — the same
// conditions that make Machine.Step return an error.
func (r *refState) step(p *program.Program) bool {
	if r.halted {
		return false
	}
	in, ok := p.InstAt(r.pc)
	if !ok || in.Op == isa.OpInvalid {
		return false
	}
	a := r.readInt(in.Rs1)
	b := r.readInt(in.Rs2)
	next := r.pc + isa.InstBytes

	switch in.Op {
	case isa.OpAdd:
		r.writeInt(in.Rd, a+b)
	case isa.OpSub:
		r.writeInt(in.Rd, a-b)
	case isa.OpAnd:
		r.writeInt(in.Rd, a&b)
	case isa.OpOr:
		r.writeInt(in.Rd, a|b)
	case isa.OpXor:
		r.writeInt(in.Rd, a^b)
	case isa.OpSlt:
		var v uint32
		if int32(a) < int32(b) {
			v = 1
		}
		r.writeInt(in.Rd, v)
	case isa.OpSll:
		r.writeInt(in.Rd, a<<(b&31))
	case isa.OpSrl:
		r.writeInt(in.Rd, a>>(b&31))
	case isa.OpSra:
		r.writeInt(in.Rd, uint32(int32(a)>>(b&31)))
	case isa.OpMul:
		r.writeInt(in.Rd, a*b)
	case isa.OpAddi:
		r.writeInt(in.Rd, a+uint32(in.Imm))
	case isa.OpAndi:
		r.writeInt(in.Rd, a&uint32(in.Imm))
	case isa.OpOri:
		r.writeInt(in.Rd, a|uint32(in.Imm))
	case isa.OpXori:
		r.writeInt(in.Rd, a^uint32(in.Imm))
	case isa.OpSlti:
		var v uint32
		if int32(a) < in.Imm {
			v = 1
		}
		r.writeInt(in.Rd, v)
	case isa.OpSlli:
		r.writeInt(in.Rd, a<<(uint32(in.Imm)&31))
	case isa.OpSrli:
		r.writeInt(in.Rd, a>>(uint32(in.Imm)&31))
	case isa.OpLui:
		r.writeInt(in.Rd, uint32(in.Imm)<<isa.LuiShift)
	case isa.OpLw:
		r.writeInt(in.Rd, r.mem[uint64(a+uint32(in.Imm))&^3])
	case isa.OpSw:
		r.mem[uint64(a+uint32(in.Imm))&^3] = b
	case isa.OpLf:
		r.fp[in.Rd-isa.FPBase] = float64(r.mem[uint64(a+uint32(in.Imm))&^3])
	case isa.OpSf:
		r.mem[uint64(a+uint32(in.Imm))&^3] = uint32(int64(r.fp[in.Rs2-isa.FPBase]))
	case isa.OpFadd:
		r.fp[in.Rd-isa.FPBase] = r.fp[in.Rs1-isa.FPBase] + r.fp[in.Rs2-isa.FPBase]
	case isa.OpFsub:
		r.fp[in.Rd-isa.FPBase] = r.fp[in.Rs1-isa.FPBase] - r.fp[in.Rs2-isa.FPBase]
	case isa.OpFmul:
		r.fp[in.Rd-isa.FPBase] = r.fp[in.Rs1-isa.FPBase] * r.fp[in.Rs2-isa.FPBase]
	case isa.OpFneg:
		r.fp[in.Rd-isa.FPBase] = -r.fp[in.Rs1-isa.FPBase]
	case isa.OpBeq:
		if a == b {
			next = branchTarget(r.pc, in.Imm)
		}
	case isa.OpBne:
		if a != b {
			next = branchTarget(r.pc, in.Imm)
		}
	case isa.OpBlt:
		if int32(a) < int32(b) {
			next = branchTarget(r.pc, in.Imm)
		}
	case isa.OpBge:
		if int32(a) >= int32(b) {
			next = branchTarget(r.pc, in.Imm)
		}
	case isa.OpJ:
		next = uint64(in.Imm) * isa.InstBytes
	case isa.OpJal:
		r.writeInt(isa.RegLink, uint32(r.pc+isa.InstBytes))
		next = uint64(in.Imm) * isa.InstBytes
	case isa.OpJr:
		next = uint64(a)
	case isa.OpJalr:
		r.writeInt(in.Rd, uint32(r.pc+isa.InstBytes))
		next = uint64(a)
	case isa.OpHalt:
		r.halted = true
		next = r.pc
	default:
		return false
	}
	r.pc = next
	return true
}

func branchTarget(pc uint64, imm int32) uint64 {
	return uint64(int64(pc) + isa.InstBytes + int64(imm)*isa.InstBytes)
}

// sanitizeInsts turns an arbitrary decoded instruction stream into a valid
// self-contained program, mirroring the invariants the generator guarantees
// (and that program.Validate enforces): no invalid opcodes, direct control
// transfers inside the image, integer destinations in the integer bank, FP
// operands in the FP bank, and a final halt.
func sanitizeInsts(insts []isa.Inst) []isa.Inst {
	const maxInsts = 512
	if len(insts) > maxInsts {
		insts = insts[:maxInsts]
	}
	n := len(insts) + 1 // +1 for the trailing halt
	out := make([]isa.Inst, 0, n)
	for i, in := range insts {
		if in.Op == isa.OpInvalid || int(in.Op) >= isa.NumOps {
			in = isa.Inst{Op: isa.OpAddi, Rd: in.Rd & 31, Rs1: in.Rs1 & 31, Imm: in.Imm}
		}
		switch in.Op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt,
			isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpMul,
			isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori, isa.OpSlti,
			isa.OpSlli, isa.OpSrli, isa.OpLui, isa.OpLw, isa.OpJalr:
			in.Rd &= 31 // integer destination
		case isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFneg:
			in.Rd |= isa.FPBase
			in.Rs1 |= isa.FPBase
			in.Rs2 |= isa.FPBase
		case isa.OpLf:
			in.Rd |= isa.FPBase
		case isa.OpSf:
			in.Rs2 |= isa.FPBase
		case isa.OpJ, isa.OpJal:
			tgt := int(in.Imm) % n
			if tgt < 0 {
				tgt += n
			}
			in.Imm = program.WordTarget(tgt)
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			tgt := (i + 1 + int(in.Imm)) % n
			if tgt < 0 {
				tgt += n
			}
			in.Imm = int32(tgt - i - 1)
		}
		out = append(out, in)
	}
	return append(out, isa.Inst{Op: isa.OpHalt})
}

// FuzzEmuVsInterp runs the emulator and the reference interpreter in
// lockstep over fuzz-generated programs and requires identical control flow,
// branch outcomes, effective addresses and integer register state at every
// step.
func FuzzEmuVsInterp(f *testing.F) {
	// Seed with real generated code (the suite's miniature benchmark at
	// two scales) and a couple of hand-written kernels.
	for _, scale := range []float64{1, 0.4} {
		p, err := program.Build(program.TestSpec().Scaled(scale))
		if err != nil {
			f.Fatal(err)
		}
		img := p.Image
		if len(img) > 2048 {
			img = img[:2048]
		}
		f.Add(img)
	}
	loop := []isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Imm: 5},
		{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 3},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: -3},
		{Op: isa.OpSw, Rs1: 0, Rs2: 2, Imm: 64},
		{Op: isa.OpLw, Rd: 3, Rs1: 0, Imm: 64},
		{Op: isa.OpHalt},
	}
	img, err := isa.EncodeAll(loop)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)

	f.Fuzz(func(t *testing.T, raw []byte) {
		insts := sanitizeInsts(isa.DecodeImage(raw))
		p, err := program.FromInsts("fuzz", insts, 0)
		if err != nil {
			t.Fatalf("sanitized program rejected: %v", err)
		}
		m := New(p)
		ref := newRef(p)

		const maxSteps = 4096
		for step := 0; step < maxSteps; step++ {
			if m.Halted() {
				if !ref.halted {
					t.Fatalf("step %d: emu halted, reference did not (ref pc %#x)", step, ref.pc)
				}
				break
			}
			pc := m.PC()
			d, err := m.Step()
			ok := ref.step(p)
			if err != nil {
				if ok {
					t.Fatalf("step %d: emu error (%v) but reference stepped past pc %#x", step, err, pc)
				}
				break
			}
			if !ok {
				t.Fatalf("step %d: reference stuck at pc %#x but emu executed %v", step, pc, d.Inst)
			}
			if d.NextPC != ref.pc {
				t.Fatalf("step %d at pc %#x (%v): next PC emu %#x, reference %#x",
					step, pc, d.Inst, d.NextPC, ref.pc)
			}
			for r := isa.Reg(0); r < isa.NumIntRegs; r++ {
				if got, want := m.IntReg(r), ref.readInt(r); got != want {
					t.Fatalf("step %d at pc %#x (%v): register %v emu %#x, reference %#x",
						step, pc, d.Inst, r, got, want)
				}
			}
		}
		if m.Halted() != ref.halted {
			t.Fatalf("final halt state diverged: emu %v, reference %v", m.Halted(), ref.halted)
		}
	})
}

// outcome is what the reference interpreter says the instruction at its PC
// will report: the branch outcome and the effective address (0 for
// non-memory instructions).
func (r *refState) outcome(in isa.Inst) (taken bool, ea uint64) {
	a, b := r.readInt(in.Rs1), r.readInt(in.Rs2)
	switch in.Op {
	case isa.OpBeq:
		taken = a == b
	case isa.OpBne:
		taken = a != b
	case isa.OpBlt:
		taken = int32(a) < int32(b)
	case isa.OpBge:
		taken = int32(a) >= int32(b)
	case isa.OpLw, isa.OpSw, isa.OpLf, isa.OpSf:
		ea = uint64(a + uint32(in.Imm))
	}
	return taken, ea
}

// FuzzFillMatchesStep checks the batched interpreter against the reference
// interpreter: Fill at fuzz-chosen batch sizes (0 included) must produce the
// reference's stream — PCs, instructions, branch outcomes, effective
// addresses — and register state at every batch boundary. A halt inside a
// batch ends it early with no error; an invalid PC (an indirect jump out of
// the image) or an invalid opcode (planted at badAt when plant is set)
// partway through a batch returns the instructions before it and the error,
// with the machine standing at the failing instruction, where a following
// Step fails the same way. Every stepEvery-th batch is followed by a Step,
// which must continue the same stream.
func FuzzFillMatchesStep(f *testing.F) {
	p, err := program.Build(program.TestSpec())
	if err != nil {
		f.Fatal(err)
	}
	img := p.Image
	if len(img) > 2048 {
		img = img[:2048]
	}
	f.Add(img, []byte{7, 0, 200, 31}, uint8(3), false, uint16(0))
	f.Add(img, []byte{255}, uint8(0), true, uint16(40))
	stray, err := isa.EncodeAll([]isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Imm: 20},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: -2},
		{Op: isa.OpJr, Rs1: 0}, // to PC 0, outside the code image
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stray, []byte{16}, uint8(2), false, uint16(0))
	halts, err := isa.EncodeAll([]isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Imm: 5},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: -2},
		{Op: isa.OpHalt}, // the 12th instruction: inside the third batch of 5
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(halts, []byte{5}, uint8(0), false, uint16(0))
	f.Add(halts, []byte{3, 0, 4}, uint8(1), false, uint16(0))
	f.Add(stray, []byte{5, 1}, uint8(0), true, uint16(2))

	f.Fuzz(func(t *testing.T, raw []byte, sizes []byte, stepEvery uint8, plant bool, badAt uint16) {
		insts := sanitizeInsts(isa.DecodeImage(raw))
		p, err := program.FromInsts("fuzz", insts, 0)
		if err != nil {
			t.Fatalf("sanitized program rejected: %v", err)
		}
		if plant {
			p.Code[int(badAt)%len(p.Code)] = isa.Inst{Op: isa.OpInvalid}
		}
		if len(sizes) == 0 {
			sizes = []byte{1}
		}
		m := New(p)
		ref := newRef(p)
		dyn := make([]frag.Dyn, 256)
		ea := make([]uint64, 256)
		var count uint64

		// check consumes one reported instruction against the reference.
		check := func(what string, d frag.Dyn, addr uint64) {
			t.Helper()
			in, ok := p.InstAt(ref.pc)
			if !ok || d.PC != ref.pc || d.Inst != in {
				t.Fatalf("%s: seq %d: got %v at %#x, reference at %#x", what, count, d.Inst, d.PC, ref.pc)
			}
			taken, wantEA := ref.outcome(in)
			if d.Taken != taken || addr != wantEA {
				t.Fatalf("%s: seq %d at %#x (%v): taken %v ea %#x, reference %v %#x",
					what, count, d.PC, in, d.Taken, addr, taken, wantEA)
			}
			if !ref.step(p) {
				t.Fatalf("%s: seq %d: reference stuck at %#x", what, count, d.PC)
			}
			count++
		}
		// agree compares the architectural state at a batch boundary.
		agree := func(what string) {
			t.Helper()
			if m.PC() != ref.pc || m.ICount() != count || m.Halted() != ref.halted {
				t.Fatalf("%s: machine at %#x after %d (halted %v), reference at %#x after %d (halted %v)",
					what, m.PC(), m.ICount(), m.Halted(), ref.pc, count, ref.halted)
			}
			for r := isa.Reg(0); r < isa.NumIntRegs; r++ {
				if got, want := m.IntReg(r), ref.readInt(r); got != want {
					t.Fatalf("%s: after %d: register %v machine %#x, reference %#x", what, count, r, got, want)
				}
			}
		}
		// stuck checks a failure: the machine stands at the instruction the
		// reference cannot execute, and Step fails there the same way.
		stuck := func(what string, err error) {
			t.Helper()
			agree(what)
			if ref.step(p) {
				t.Fatalf("%s: failed with %v but the reference steps past %#x", what, err, m.PC())
			}
			if _, serr := m.Step(); serr == nil || serr.Error() != err.Error() {
				t.Fatalf("%s: failed with %v; Step after it: %v", what, err, serr)
			}
		}

		const maxInsts = 8192
		for i := 0; i < maxInsts && count < maxInsts; i++ {
			k := int(sizes[i%len(sizes)])
			for j := range ea[:k] {
				ea[j] = ^uint64(0) // Fill must write every EA it reports
			}
			n, err := m.Fill(dyn[:k], ea[:k])
			if n < 0 || n > k {
				t.Fatalf("Fill(%d) returned %d", k, n)
			}
			for j := 0; j < n; j++ {
				check("Fill", dyn[j], ea[j])
			}
			if err != nil {
				stuck("Fill", err)
				return
			}
			agree("Fill")
			if n < k {
				if !m.Halted() {
					t.Fatalf("Fill(%d) stopped at %d without halting or failing", k, n)
				}
				if n, err := m.Fill(dyn[:k], ea[:k]); n != 0 || err != nil {
					t.Fatalf("Fill after halt = %d, %v; want 0, nil", n, err)
				}
				if _, err := m.Step(); !errors.Is(err, ErrHalted) {
					t.Fatalf("Step after a halting Fill: %v", err)
				}
				return
			}
			if stepEvery > 0 && i%int(stepEvery) == 0 && !m.Halted() {
				d, err := m.Step()
				if err != nil {
					stuck("Step", err)
					return
				}
				if d.Seq != count {
					t.Fatalf("Step seq %d after %d instructions", d.Seq, count)
				}
				check("Step", frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken}, d.EA)
				if d.NextPC != ref.pc {
					t.Fatalf("Step next PC %#x, reference %#x", d.NextPC, ref.pc)
				}
				agree("Step")
			}
		}
	})
}
