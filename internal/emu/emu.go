// Package emu is the functional emulator for the synthetic ISA. It executes
// a generated program instruction by instruction and produces the true
// dynamic instruction stream — the oracle the timing simulator measures
// itself against: the front-end's predictions are compared to this stream,
// and divergences drive wrong-path fetch and recovery, exactly as the
// paper's execution-driven simulator did on top of SimpleScalar's
// instruction semantics.
package emu

import (
	"errors"
	"fmt"

	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
)

// ErrHalted is returned by Step once the program has executed OpHalt.
var ErrHalted = errors.New("emu: program halted")

// Oracle is the dynamic-stream source the timing simulator consumes: the
// live Machine, or any replacement producing the identical stream (e.g. an
// artifact-cache tape replayer). Halted reports that the program has
// executed OpHalt. Implementations must be bit-exact with Machine: the
// simulator's determinism guarantees are defined against its stream.
//
// Fill is the batch form of Machine.Step, the one the simulator's stream
// and the functional warmers consume: it decodes the next instructions
// straight into dyn, with each one's effective address (0 for non-memory
// instructions) at the same index of ea, which must be at least as long as
// dyn. It stops after len(dyn) instructions or after OpHalt, whichever
// comes first, and returns how many it decoded; a halted oracle decodes
// none. On an error, the n instructions before the failing one are valid
// and the oracle stands at the failing one — exactly where, and with the
// error, a Step loop would have stopped.
type Oracle interface {
	Fill(dyn []frag.Dyn, ea []uint64) (n int, err error)
	Halted() bool
}

// DynInst is one executed instruction of the true dynamic stream.
type DynInst struct {
	Seq    uint64   // dynamic sequence number, starting at 0
	PC     uint64   // byte address of the instruction
	Inst   isa.Inst // the decoded instruction
	NextPC uint64   // address of the next executed instruction
	Taken  bool     // conditional branches: whether the branch was taken
	EA     uint64   // memory ops: effective byte address
}

// Machine is the architectural state of one running program.
type Machine struct {
	prog *program.Program

	pc      uint64
	intRegs [isa.NumIntRegs]uint32
	fpRegs  [isa.NumFPRegs]float64

	data  []byte // data segment at program.DataBase
	stack []byte // stack segment, covers [StackBase-StackSize, StackBase)

	// stray holds accesses outside the mapped segments (should not occur
	// on the correct path; kept so wrong specs fail loudly in tests
	// rather than silently corrupting state).
	stray map[uint64]uint32

	icount uint64
	halted bool
}

// New creates a machine ready to execute p from its entry point. The data
// segment is copied so multiple machines can share one Program.
func New(p *program.Program) *Machine {
	m := &Machine{
		prog:  p,
		pc:    p.EntryPC,
		data:  make([]byte, len(p.Data)),
		stack: make([]byte, program.StackSize),
	}
	copy(m.data, p.Data)
	return m
}

// PC returns the address of the next instruction to execute.
func (m *Machine) PC() uint64 { return m.pc }

// Halted reports whether the program has executed OpHalt.
func (m *Machine) Halted() bool { return m.halted }

// ICount returns the number of instructions executed so far.
func (m *Machine) ICount() uint64 { return m.icount }

// IntReg returns the current value of integer register r. FP registers and
// r0 read as zero, so instruction decoding never needs to special-case the
// register bank before reading.
func (m *Machine) IntReg(r isa.Reg) uint32 {
	if r == isa.RegZero || r >= isa.FPBase {
		return 0
	}
	return m.intRegs[r]
}

// StrayAccesses reports how many memory accesses fell outside the mapped
// data and stack segments (always zero for generator-produced programs).
func (m *Machine) StrayAccesses() int { return len(m.stray) }

func (m *Machine) setInt(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		m.intRegs[r] = v
	}
}

// Step executes one instruction and returns its dynamic record.
func (m *Machine) Step() (DynInst, error) {
	if m.halted {
		return DynInst{}, ErrHalted
	}
	in, ok := m.prog.InstAt(m.pc)
	if !ok {
		return DynInst{}, errPC(m.pc)
	}
	next, addr, taken, ok := m.exec(&in, m.pc)
	if !ok {
		return DynInst{}, errOpcode(m.pc)
	}
	d := DynInst{Seq: m.icount, PC: m.pc, Inst: in, NextPC: next, Taken: taken, EA: addr}
	m.pc = next
	m.icount++
	return d, nil
}

// Fill executes instructions into dyn and ea (see Oracle.Fill), with the
// PC and the instruction count in locals for the batch.
func (m *Machine) Fill(dyn []frag.Dyn, ea []uint64) (int, error) {
	ea = ea[:len(dyn)]
	pc := m.pc
	n := 0
	var err error
	for n < len(dyn) && !m.halted {
		in, ok := m.prog.InstAt(pc)
		if !ok {
			err = errPC(pc)
			break
		}
		next, addr, taken, ok := m.exec(&in, pc)
		if !ok {
			err = errOpcode(pc)
			break
		}
		dyn[n] = frag.Dyn{PC: pc, Inst: in, Taken: taken}
		ea[n] = addr
		pc = next
		n++
	}
	m.pc = pc
	m.icount += uint64(n)
	return n, err
}

func errPC(pc uint64) error     { return fmt.Errorf("emu: PC %#x outside code image", pc) }
func errOpcode(pc uint64) error { return fmt.Errorf("emu: invalid opcode at PC %#x", pc) }

// exec is the interpreter, the one place that knows the ISA's semantics:
// it executes in, fetched from pc, against the machine's registers and
// memory, and returns its successor PC, its effective address (0 for
// non-memory instructions) and, for a conditional branch, whether it was
// taken. Fill and Step own the PC and the instruction count around it.
// It reports false, having changed nothing, on an invalid opcode.
//
// Step calls exec directly rather than through a one-instruction Fill,
// whose batch set-up made a Step-at-a-time caller about half again slower.
func (m *Machine) exec(in *isa.Inst, pc uint64) (next, addr uint64, taken, ok bool) {
	next = pc + isa.InstBytes
	rs1 := m.IntReg(in.Rs1)
	rs2 := m.IntReg(in.Rs2)

	switch in.Op {
	case isa.OpAdd:
		m.setInt(in.Rd, rs1+rs2)
	case isa.OpSub:
		m.setInt(in.Rd, rs1-rs2)
	case isa.OpAnd:
		m.setInt(in.Rd, rs1&rs2)
	case isa.OpOr:
		m.setInt(in.Rd, rs1|rs2)
	case isa.OpXor:
		m.setInt(in.Rd, rs1^rs2)
	case isa.OpSlt:
		m.setInt(in.Rd, boolToU32(int32(rs1) < int32(rs2)))
	case isa.OpSll:
		m.setInt(in.Rd, rs1<<(rs2&31))
	case isa.OpSrl:
		m.setInt(in.Rd, rs1>>(rs2&31))
	case isa.OpSra:
		m.setInt(in.Rd, uint32(int32(rs1)>>(rs2&31)))
	case isa.OpMul:
		m.setInt(in.Rd, rs1*rs2)

	case isa.OpAddi:
		m.setInt(in.Rd, rs1+uint32(in.Imm))
	case isa.OpAndi:
		m.setInt(in.Rd, rs1&uint32(in.Imm))
	case isa.OpOri:
		m.setInt(in.Rd, rs1|uint32(in.Imm))
	case isa.OpXori:
		m.setInt(in.Rd, rs1^uint32(in.Imm))
	case isa.OpSlti:
		m.setInt(in.Rd, boolToU32(int32(rs1) < in.Imm))
	case isa.OpSlli:
		m.setInt(in.Rd, rs1<<(uint32(in.Imm)&31))
	case isa.OpSrli:
		m.setInt(in.Rd, rs1>>(uint32(in.Imm)&31))
	case isa.OpLui:
		m.setInt(in.Rd, uint32(in.Imm)<<isa.LuiShift)

	case isa.OpLw:
		addr = uint64(rs1 + uint32(in.Imm))
		m.setInt(in.Rd, m.loadWord(addr))
	case isa.OpSw:
		addr = uint64(rs1 + uint32(in.Imm))
		m.storeWord(addr, rs2)
	case isa.OpLf:
		addr = uint64(rs1 + uint32(in.Imm))
		m.fpRegs[in.Rd-isa.FPBase] = float64(m.loadWord(addr))
	case isa.OpSf:
		addr = uint64(rs1 + uint32(in.Imm))
		m.storeWord(addr, uint32(int64(m.fpRegs[in.Rs2-isa.FPBase])))

	case isa.OpFadd:
		m.fpRegs[in.Rd-isa.FPBase] = m.fp(in.Rs1) + m.fp(in.Rs2)
	case isa.OpFsub:
		m.fpRegs[in.Rd-isa.FPBase] = m.fp(in.Rs1) - m.fp(in.Rs2)
	case isa.OpFmul:
		m.fpRegs[in.Rd-isa.FPBase] = m.fp(in.Rs1) * m.fp(in.Rs2)
	case isa.OpFneg:
		m.fpRegs[in.Rd-isa.FPBase] = -m.fp(in.Rs1)

	case isa.OpBeq:
		taken = rs1 == rs2
	case isa.OpBne:
		taken = rs1 != rs2
	case isa.OpBlt:
		taken = int32(rs1) < int32(rs2)
	case isa.OpBge:
		taken = int32(rs1) >= int32(rs2)

	case isa.OpJ:
		next = uint64(in.Imm) * isa.InstBytes
	case isa.OpJal:
		m.setInt(isa.RegLink, uint32(pc+isa.InstBytes))
		next = uint64(in.Imm) * isa.InstBytes
	case isa.OpJr:
		next = uint64(rs1)
	case isa.OpJalr:
		m.setInt(in.Rd, uint32(pc+isa.InstBytes))
		next = uint64(rs1)

	case isa.OpHalt:
		m.halted = true
		next = pc

	default:
		return 0, 0, false, false
	}

	if taken {
		next = uint64(int64(pc) + isa.InstBytes + int64(in.Imm)*isa.InstBytes)
	}
	return next, addr, taken, true
}

func (m *Machine) fp(r isa.Reg) float64 { return m.fpRegs[r-isa.FPBase] }

func boolToU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// segment resolves an address to a backing slice and offset, or nil if the
// address is outside the data and stack segments.
func (m *Machine) segment(ea uint64) ([]byte, int) {
	switch {
	case ea >= program.DataBase && ea+4 <= program.DataBase+uint64(len(m.data)):
		return m.data, int(ea - program.DataBase)
	case ea >= program.StackBase-program.StackSize && ea+4 <= program.StackBase:
		return m.stack, int(ea - (program.StackBase - program.StackSize))
	}
	return nil, 0
}

func (m *Machine) loadWord(ea uint64) uint32 {
	ea &^= 3
	if seg, off := m.segment(ea); seg != nil {
		return uint32(seg[off]) | uint32(seg[off+1])<<8 | uint32(seg[off+2])<<16 | uint32(seg[off+3])<<24
	}
	if m.stray == nil {
		return 0
	}
	return m.stray[ea]
}

func (m *Machine) storeWord(ea uint64, v uint32) {
	ea &^= 3
	if seg, off := m.segment(ea); seg != nil {
		seg[off] = byte(v)
		seg[off+1] = byte(v >> 8)
		seg[off+2] = byte(v >> 16)
		seg[off+3] = byte(v >> 24)
		return
	}
	if m.stray == nil {
		m.stray = make(map[uint64]uint32)
	}
	m.stray[ea] = v
}

// Run executes up to maxInsts instructions (or until halt) and returns the
// number executed. It is the convenience used by tests and tools that do
// not need the per-instruction stream.
func (m *Machine) Run(maxInsts uint64) (uint64, error) {
	var dyn [256]frag.Dyn
	var ea [256]uint64
	var n uint64
	for n < maxInsts && !m.halted {
		k, err := m.Fill(dyn[:min(uint64(len(dyn)), maxInsts-n)], ea[:])
		n += uint64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

var _ Oracle = (*Machine)(nil)
