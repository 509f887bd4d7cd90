package core

import (
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/rename"
)

// FragEntry is one distinct fragment as the front-end consumes it, decoded
// once: the fragment itself, each instruction's source registers and
// memory flag (what materialize needs for dependence edges and effective
// addresses), and its register writes (destinations for the same edges,
// live-outs for parallel rename and the live-out predictor's training).
type FragEntry struct {
	Frag   *frag.Fragment
	Writes rename.Writes
	deps   []instDeps
}

// instDeps is one instruction's decoded sources, in isa.Inst.Sources order.
type instDeps struct {
	srcs [3]isa.Reg
	nsrc uint8
	mem  bool
}

// FragTable is a run's fragment table: FromCode and the per-instruction
// decode memoized per fragment ID. A fragment is a pure function of
// (program, heuristics, ID) and immutable, so each distinct one is built and
// decoded once and shared by every later use — the stream's true and wrong
// paths, parallel rename, the trace cache, the functional warmer and every
// detailed window of a sampled run. A table is not safe for concurrent use.
type FragTable struct {
	prog  *program.Program
	heur  frag.Heuristics
	m     map[frag.ID]*FragEntry
	built int64
}

// NewFragTable returns an empty table for p's fragments under h.
func NewFragTable(p *program.Program, h frag.Heuristics) *FragTable {
	return &FragTable{prog: p, heur: h, m: make(map[frag.ID]*FragEntry, 256)}
}

// Get returns the entry for the fragment FromCode builds from id.
func (t *FragTable) Get(id frag.ID) *FragEntry {
	if e, ok := t.m[id]; ok {
		return e
	}
	f := t.heur.FromCode(t.prog, id)
	e := &FragEntry{Frag: f, Writes: rename.WritesOf(f.Insts), deps: make([]instDeps, f.Len())}
	for i, in := range f.Insts {
		d := &e.deps[i]
		d.nsrc = uint8(len(in.Sources(d.srcs[:0])))
		d.mem = in.IsMem()
	}
	t.m[id] = e
	t.built++
	return e
}

// Frag returns the fragment FromCode builds from id.
func (t *FragTable) Frag(id frag.ID) *frag.Fragment { return t.Get(id).Frag }

// For reports whether the table holds p's fragments under h.
func (t *FragTable) For(p *program.Program, h frag.Heuristics) bool {
	return t.prog == p && t.heur == h
}

// Built returns how many fragments the table has built (FromCode calls).
func (t *FragTable) Built() int64 { return t.built }
