// Package rename implements register renaming: the conventional monolithic
// renamer, and the paper's parallel renamer (§4) in which multiple narrow
// renamers each rename one fragment concurrently, made correct by live-out
// prediction and a two-phase protocol:
//
//	phase 1 (serial, one fragment per cycle, program order): allocate
//	physical registers for the fragment's predicted live-outs and hand the
//	updated map table to the next renamer;
//	phase 2 (parallel across fragments): rename the fragment's
//	instructions, binding predicted-live-out writes to their phase-1
//	registers and allocating fresh registers for everything else.
//
// The package is functional — it produces real physical-register bindings —
// so tests can prove the paper's central correctness claim: when live-out
// predictions are right, parallel rename produces exactly the dependence
// structure of sequential rename.
package rename

import (
	"fmt"
	"math/bits"

	"github.com/parallel-frontend/pfe/internal/isa"
)

// PhysReg names a physical register. Values < isa.NumRegs are the initial
// architectural bindings.
type PhysReg int32

// MapTable maps each logical register to its current physical register. It
// is a value type: phase 1 copies it between renamers, and recovery restores
// a checkpoint, exactly as the paper describes ("making a copy of the
// renaming table").
type MapTable [isa.NumRegs]PhysReg

// InitialMap returns the identity mapping of logical to physical registers.
func InitialMap() MapTable {
	var mt MapTable
	for i := range mt {
		mt[i] = PhysReg(i)
	}
	return mt
}

// FreeList hands out physical registers. The simulator gives back registers
// wholesale on squash/commit; the free list therefore supports bulk state
// snapshots rather than per-register frees.
type FreeList struct {
	next PhysReg
	cap  PhysReg
}

// NewFreeList creates a free list with capacity total physical registers,
// the first isa.NumRegs of which are the initial architectural bindings.
func NewFreeList(total int) *FreeList {
	return &FreeList{next: isa.NumRegs, cap: PhysReg(total)}
}

// Alloc returns a fresh physical register. The register file is modelled as
// a rolling namespace: the timing simulator bounds in-flight instructions by
// the window, so a monotonically increasing id with wraparound far beyond
// the window depth is equivalent to a real free list and keeps every
// allocation unique among in-flight instructions.
func (fl *FreeList) Alloc() PhysReg {
	r := fl.next
	fl.next++
	if fl.next < 0 { // wrapped after ~2^31 allocations
		fl.next = isa.NumRegs
	}
	return r
}

// Allocated reports how many registers have ever been allocated.
func (fl *FreeList) Allocated() int64 { return int64(fl.next) - isa.NumRegs }

// Renamed is one renamed instruction: its physical destination (if any) and
// physical sources.
type Renamed struct {
	Inst    isa.Inst
	Dest    PhysReg // valid if HasDest
	HasDest bool
	Srcs    [3]PhysReg
	NSrc    int
}

// Sequential is the monolithic renamer: it renames instructions strictly in
// program order against a single map table.
type Sequential struct {
	mt MapTable
	fl *FreeList
}

// NewSequential creates a monolithic renamer.
func NewSequential(fl *FreeList) *Sequential {
	return &Sequential{mt: InitialMap(), fl: fl}
}

// Map returns the current map table (for checkpointing in tests).
func (s *Sequential) Map() MapTable { return s.mt }

// Rename renames one instruction in program order.
func (s *Sequential) Rename(in isa.Inst) Renamed {
	return renameAgainst(in, &s.mt, s.fl, nil)
}

// renameAgainst renames in against mt, allocating destinations from fl. If
// preallocated is non-nil and the instruction is flagged as a live-out last
// write, the destination comes from the preallocation instead (phase 2 of
// the parallel protocol).
func renameAgainst(in isa.Inst, mt *MapTable, fl *FreeList, preallocated *PhysReg) Renamed {
	r := Renamed{Inst: in}
	var srcs [3]isa.Reg
	for _, src := range in.Sources(srcs[:0]) {
		r.Srcs[r.NSrc] = mt[src]
		r.NSrc++
	}
	if rd, ok := in.Dest(); ok {
		var p PhysReg
		if preallocated != nil {
			p = *preallocated
		} else {
			p = fl.Alloc()
		}
		mt[rd] = p
		r.Dest = p
		r.HasDest = true
	}
	return r
}

// LiveOuts describes a fragment's register writes the way the live-out
// predictor stores them (§4.1): a 64-bit bitmap of registers written by the
// fragment ("live-outs"), and a 16-bit bitmap marking which instruction
// positions perform the last write to some live-out register.
type LiveOuts struct {
	RegMask   uint64
	LastWrite uint32
}

// NumRegs returns the number of live-out registers (phase-1 allocations).
func (lo LiveOuts) NumRegs() int { return bits.OnesCount64(lo.RegMask) }

// Insts is the minimal fragment view this package needs: the instruction
// sequence. frag.Fragment.Insts satisfies it directly.
type Insts []isa.Inst

// ComputeLiveOuts scans a fragment's instructions and returns its true
// live-out description. The fill path of the live-out predictor uses this
// on the committed stream; misprediction detection compares it against the
// prediction.
func ComputeLiveOuts(insts Insts) LiveOuts {
	// Called once per fragment on the simulator's hot path: one backward
	// pass, in which the first write seen to a register is its last write.
	var lo LiveOuts
	for i := len(insts) - 1; i >= 0; i-- {
		if rd, ok := insts[i].Dest(); ok && lo.RegMask&(1<<rd) == 0 {
			lo.RegMask |= 1 << rd
			lo.LastWrite |= 1 << i
		}
	}
	return lo
}

// MispredictKind enumerates §4.3's four live-out misprediction conditions.
type MispredictKind int

const (
	// PredictionCorrect: no misprediction.
	PredictionCorrect MispredictKind = iota
	// UnpredictedWrite: a write to a register not predicted live-out (1).
	UnpredictedWrite
	// MissingWrite: no write to a register predicted live-out (2).
	MissingWrite
	// WriteAfterLast: a write to a live-out register after its predicted
	// last write (3).
	WriteAfterLast
	// LastWriteMissing: an instruction predicted to be a last write is
	// not (4; supersedes condition 2 when both fire).
	LastWriteMissing
)

// String names the condition.
func (k MispredictKind) String() string {
	switch k {
	case PredictionCorrect:
		return "correct"
	case UnpredictedWrite:
		return "unpredicted-write"
	case MissingWrite:
		return "missing-write"
	case WriteAfterLast:
		return "write-after-last"
	case LastWriteMissing:
		return "last-write-missing"
	}
	return fmt.Sprintf("mispredict(%d)", int(k))
}

// CheckPrediction compares a live-out prediction against the fragment's
// actual behaviour and returns the first detected condition, following the
// detection order of §4.3: conditions 1 and 3 fire during renaming (at the
// offending instruction), condition 4 after the fragment completes, and
// condition 2 is superseded by 4.
func CheckPrediction(pred LiveOuts, insts Insts) MispredictKind {
	actual := ComputeLiveOuts(insts)
	// During rename: walk instructions in order. seenLast is a bitmask over
	// the 64 logical registers (isa.NumRegs fits a uint64), not a map —
	// this runs once per fragment on the hot path.
	var seenLast uint64
	for i, in := range insts {
		rd, ok := in.Dest()
		if !ok {
			continue
		}
		if pred.RegMask&(1<<rd) == 0 {
			return UnpredictedWrite // condition 1
		}
		if seenLast&(1<<rd) != 0 {
			return WriteAfterLast // condition 3
		}
		if pred.LastWrite&(1<<i) != 0 {
			seenLast |= 1 << rd
		}
	}
	// After rename: every predicted last write must exist and be a real
	// last write (condition 4), and every predicted live-out register
	// must have been written (condition 2, superseded by 4).
	if pred.LastWrite&^actual.LastWrite != 0 {
		return LastWriteMissing // condition 4
	}
	if pred.RegMask&^actual.RegMask != 0 {
		return MissingWrite // condition 2
	}
	return PredictionCorrect
}
