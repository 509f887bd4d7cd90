// Package frag implements the paper's fragment model (§3.1–§3.2): the
// heuristics that chop the dynamic instruction stream into fragments, the
// fragment identity used by the fragment predictor and the trace cache, and
// the fragment buffers that stage fetched fragments until rename reads them.
//
// The paper deliberately makes fragments identical to traces so the parallel
// front-end can be compared against a trace cache with no selection bias;
// this package is therefore shared by both mechanisms.
package frag

import (
	"fmt"
	"strings"

	"github.com/parallel-frontend/pfe/internal/isa"
)

// MaxLen is the paper's maximum fragment length in instructions and
// BranchCutoff the position after which a conditional branch terminates the
// fragment; MaxBranches bounds the conditional branches a default fragment
// can contain (eight early branches plus the terminating one). These are
// the defaults — Heuristics generalizes them for the fragment-selection
// studies the paper's conclusion calls for.
const (
	MaxLen       = 16
	BranchCutoff = 8
	MaxBranches  = BranchCutoff + 1

	// AbsMaxLen is the hard upper bound on fragment length for ANY
	// heuristics: the ID's direction mask has 32 bits, so no selectable
	// fragment can exceed 32 instructions. Fixed-size per-fragment storage
	// (e.g. the simulator's recycled op arrays) is sized by this.
	AbsMaxLen = 32
)

// Heuristics parameterizes fragment selection (§6: "fragments can be longer
// and can have a larger variance in size ... further research on fragment
// selection"). The paper's heuristics are {MaxLen: 16, BranchCutoff: 8};
// larger values produce longer fragments at the cost of more direction bits
// per prediction. MaxLen is capped at 32 (the ID's direction-mask width).
type Heuristics struct {
	MaxLen       int
	BranchCutoff int
}

// DefaultHeuristics returns the paper's fragment-selection parameters.
func DefaultHeuristics() Heuristics {
	return Heuristics{MaxLen: MaxLen, BranchCutoff: BranchCutoff}
}

// normalize clamps a (possibly zero) Heuristics to valid values.
func (h Heuristics) normalize() Heuristics {
	if h.MaxLen <= 0 {
		h.MaxLen = MaxLen
	}
	if h.MaxLen > AbsMaxLen {
		h.MaxLen = AbsMaxLen
	}
	if h.BranchCutoff <= 0 {
		h.BranchCutoff = BranchCutoff
	}
	return h
}

// MaxFragLen returns the longest fragment h selects: its MaxLen after the
// same defaulting and clamping Split and FromCode apply.
func (h Heuristics) MaxFragLen() int { return h.normalize().MaxLen }

// ID identifies a fragment the way the paper's trace predictor does: by its
// starting address and the directions of its conditional branches. Length is
// derived (the static code plus the directions determine it) and is not part
// of identity.
type ID struct {
	StartPC uint64
	BrMask  uint32 // bit i = direction of the i-th conditional branch
	NumBr   uint8  // number of conditional branches in the fragment
}

// Key packs the ID into a uint64 for hashing: word-address in the low bits,
// direction mask and branch count above. Code images are far below 2^28
// bytes, so the packing is collision-free.
func (id ID) Key() uint64 {
	return id.StartPC/isa.InstBytes | uint64(id.BrMask)<<26 | uint64(id.NumBr)<<58
}

// Zero reports whether the ID is the zero value (no fragment).
func (id ID) Zero() bool { return id == ID{} }

// String renders the ID compactly for logs and tests.
func (id ID) String() string {
	if id.Zero() {
		return "frag{}"
	}
	var dirs strings.Builder
	for i := 0; i < int(id.NumBr); i++ {
		if id.BrMask&(1<<i) != 0 {
			dirs.WriteByte('T')
		} else {
			dirs.WriteByte('N')
		}
	}
	return fmt.Sprintf("frag{%#x %s}", id.StartPC, dirs.String())
}

// Fragment is a materialized fragment: its identity plus the instructions
// (and their addresses) it contains.
type Fragment struct {
	ID    ID
	PCs   []uint64
	Insts []isa.Inst
}

// Len returns the fragment length in instructions.
func (f *Fragment) Len() int { return len(f.Insts) }

// EndsInIndirect reports whether the fragment was terminated by an indirect
// branch (return, indirect jump or indirect call).
func (f *Fragment) EndsInIndirect() bool {
	if len(f.Insts) == 0 {
		return false
	}
	return f.Insts[len(f.Insts)-1].IsIndirect()
}

// FallthroughPC returns the address the stream continues at if the fragment
// is not ended by a taken control transfer: the address after the last
// instruction.
func (f *Fragment) FallthroughPC() uint64 {
	if len(f.PCs) == 0 {
		return f.ID.StartPC
	}
	return f.PCs[len(f.PCs)-1] + isa.InstBytes
}

// Stops reports whether instruction in at 1-indexed position pos terminates
// a fragment under h: all indirect branches stop; a conditional branch
// stops if it is after the cutoff; the MaxLen-th instruction always stops.
// Halt also stops.
func (h Heuristics) Stops(in isa.Inst, pos int) bool {
	switch {
	case in.IsIndirect():
		return true
	case in.IsCondBranch() && pos > h.BranchCutoff:
		return true
	case pos >= h.MaxLen:
		return true
	case in.Op == isa.OpHalt:
		return true
	}
	return false
}

// stops applies the default heuristics.
func stops(in isa.Inst, pos int) bool { return DefaultHeuristics().Stops(in, pos) }

// CodeReader provides static code access for speculative fragment
// construction; *program.Program implements it.
type CodeReader interface {
	InstAt(pc uint64) (isa.Inst, bool)
}

// FromCode walks the static code from id.StartPC following id's predicted
// branch directions and materializes the fragment the front-end should
// fetch. Direction bits beyond id.NumBr (possible only for corrupted or
// aliased predictions) default to not-taken. The walk stops early if it
// leaves the code image, which models wrong-path fetch running into
// non-code bytes.
//
// The returned fragment's ID is canonicalized: NumBr is the number of
// conditional branches actually walked and BrMask holds exactly the
// direction bits consumed (including the terminating branch's), so the ID
// matches what Split would produce for the same instruction sequence.
func FromCode(code CodeReader, id ID) *Fragment {
	return DefaultHeuristics().FromCode(code, id)
}

// FromCode is the heuristics-parameterized variant of the package-level
// FromCode.
func (h Heuristics) FromCode(code CodeReader, id ID) *Fragment {
	h = h.normalize()
	f := &Fragment{ID: ID{StartPC: id.StartPC}}
	pc := id.StartPC
	br := 0
	for pos := 1; pos <= h.MaxLen; pos++ {
		in, ok := code.InstAt(pc)
		if !ok {
			break
		}
		f.PCs = append(f.PCs, pc)
		f.Insts = append(f.Insts, in)
		taken := false
		if in.IsCondBranch() {
			taken = br < int(id.NumBr) && id.BrMask&(1<<br) != 0
			if taken {
				f.ID.BrMask |= 1 << br
			}
			br++
		}
		if h.Stops(in, pos) {
			break
		}
		switch {
		case in.IsCondBranch():
			if taken {
				pc = uint64(int64(pc) + isa.InstBytes + int64(in.Imm)*isa.InstBytes)
			} else {
				pc += isa.InstBytes
			}
		case in.IsDirectJump():
			pc = uint64(in.Imm) * isa.InstBytes
		default:
			pc += isa.InstBytes
		}
	}
	f.ID.NumBr = uint8(br)
	return f
}

// DirectionOf returns the canonical direction bit (bit index i for the i-th
// conditional branch) consumed for the branch at instruction index idx, and
// whether that instruction is a conditional branch.
func (f *Fragment) DirectionOf(idx int) (taken, ok bool) {
	br := 0
	for i, in := range f.Insts {
		if !in.IsCondBranch() {
			continue
		}
		if i == idx {
			return f.ID.BrMask&(1<<br) != 0, true
		}
		br++
	}
	return false, false
}

// Dyn is the slice of the true dynamic stream the splitter consumes; it
// mirrors emu.DynInst without importing it (frag is below emu in the
// dependency order so the trace cache and predictor can use it standalone).
type Dyn struct {
	PC    uint64
	Inst  isa.Inst
	Taken bool
}

// Split consumes the longest prefix of stream that forms one fragment under
// the selection heuristics and returns its length and identity. An empty
// stream returns n == 0.
func Split(stream []Dyn) (n int, id ID) {
	return DefaultHeuristics().Split(stream)
}

// Split is the heuristics-parameterized variant of the package-level Split.
func (h Heuristics) Split(stream []Dyn) (n int, id ID) {
	h = h.normalize()
	if len(stream) == 0 {
		return 0, ID{}
	}
	id.StartPC = stream[0].PC
	for i, d := range stream {
		pos := i + 1
		if d.Inst.IsCondBranch() && id.NumBr < 32 {
			if d.Taken {
				id.BrMask |= 1 << id.NumBr
			}
			id.NumBr++
		}
		if h.Stops(d.Inst, pos) || pos == len(stream) {
			return pos, id
		}
	}
	return len(stream), id
}
