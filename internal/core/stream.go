package core

import (
	"errors"
	"fmt"

	"github.com/parallel-frontend/pfe/internal/backend"
	"github.com/parallel-frontend/pfe/internal/bpred"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/frag"
	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/metrics"
	"github.com/parallel-frontend/pfe/internal/pool"
	"github.com/parallel-frontend/pfe/internal/program"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// Stream generates the speculative fetch stream every front-end consumes:
// predicted fragments, materialized from the static code image, compared
// against the true dynamic stream (the functional emulator). When a
// prediction diverges from the truth, the stream keeps producing wrong-path
// fragments — which occupy fetch slots, buffers and window entries exactly
// like real speculative hardware — until the mispredicted instruction
// resolves in the back-end and the simulator applies the redirect.
//
// The stream also owns the oracle-side bookkeeping hardware keeps in its
// own structures: per-register last-writer state for dependence edges
// (proven equivalent to parallel rename's bindings by the rename package's
// tests), speculative vs. retirement predictor history, and the redirect
// checkpoint.
type Stream struct {
	prog *program.Program
	mach emu.Oracle
	pred *bpred.TracePredictor
	heur frag.Heuristics

	// Oracle lookahead: oracle[i] is the true instruction at oracle seq
	// oracleBase+i and oracleEA[i] its effective address. refill keeps
	// lookahead entries from trueCursor on and trims the consumed prefix
	// only once it is several lookaheads long, so the memmove is amortized
	// over many fragments.
	oracle     []frag.Dyn
	oracleEA   []uint64
	oracleBase uint64
	maxLen     int // longest fragment heur selects (splitTrue's window)

	// Speculative state.
	specHist   bpred.History
	retireHist bpred.History
	lastWriter [isa.NumRegs]uint64 // speculative seq+1 of last writer (0 = none)
	nextSeq    uint64              // next speculative op seq (starts at 1)

	trueCursor uint64 // oracle seq speculation has correctly consumed
	onTrue     bool
	prevFrag   *frag.Fragment // last generated fragment (successor computation)
	prevLastOp *backend.Op    // its final op (retroactive mispredict points)

	pending *Redirect
	// redFree recycles the consumed Redirect: at most one divergence is
	// outstanding, and its record is only read in the cycle it resolves,
	// so the next divergence (created no earlier than the next fetch
	// cycle) can safely reuse the object.
	redFree *Redirect

	fragsGenerated int64
	fragsCorrect   int64
	doneTrue       bool // true path fully generated (halt fragment emitted)

	// ffPool recycles FetchedFrags (and their inline op storage) once the
	// owning Unit proves every reference is gone — the cycle loop's biggest
	// allocation source before pooling. fragMemo caches FromCode results:
	// Fragments are immutable and FromCode is a pure function of
	// (program, id), so each distinct fragment is constructed once per
	// simulation and shared by every subsequent use.
	ffPool   *pool.FreeList[FetchedFrag]
	fragMemo map[frag.ID]*frag.Fragment

	// Observability: attached by the owning Unit; now is the current
	// cycle, advanced by Unit.Cycle via Tick so prediction events carry
	// the cycle they were made in.
	sink trace.Sink
	met  *metrics.Pipeline
	now  uint64
}

// Redirect is the recovery checkpoint for the single outstanding divergence.
type Redirect struct {
	CulpritSeq uint64      // spec seq of the op whose execution reveals the misprediction
	Culprit    *backend.Op // that op
	TrueSeq    uint64      // oracle seq fetch resumes from
	TruePC     uint64      // address of that instruction
	retireHist bpred.History
	lastWriter [isa.NumRegs]uint64
}

// FetchedFrag is one generated fragment with everything the fetch and
// rename stages need.
type FetchedFrag struct {
	Frag *frag.Fragment
	Ops  []*backend.Op // parallel to Frag.Insts
	// WrongFrom is the index of the first wrong-path instruction
	// (len(Ops) when the fragment is fully correct-path).
	WrongFrom int

	// lastWriterAtWrong snapshots the dependence table as of the first
	// wrong-path instruction, restored on redirect.
	lastWriterAtWrong [isa.NumRegs]uint64

	// opsStore is the inline backing for Ops: a recycled FetchedFrag
	// carries its micro-ops with it, so materialize resets ops in place
	// instead of allocating per instruction. opsPtrs is initialized once
	// at construction (opsPtrs[i] = &opsStore[i]) and Ops re-sliced from
	// it per use; the indirection keeps the public []*backend.Op shape the
	// stages and back-end share.
	opsStore [frag.AbsMaxLen]backend.Op
	opsPtrs  [frag.AbsMaxLen]*backend.Op
}

// ErrNoFragment is returned when the stream cannot produce a fragment this
// cycle (wrong-path fetch ran off the code image, or the predictor has no
// target after an indirect jump on the wrong path). The front-end simply
// idles; the pending redirect will restart fetch.
var ErrNoFragment = errors.New("core: no fragment available")

// NewStream builds a stream over the given oracle for p; a nil oracle means
// a fresh live emulator (the cold path). An artifact-cache tape reader
// passed here replays a recorded dynamic stream instead — bit-identical by
// the tape package's contract, so the rest of the front-end cannot tell the
// difference. A zero Heuristics value selects the paper's fragment
// selection.
func NewStream(p *program.Program, pred *bpred.TracePredictor, h frag.Heuristics, oracle emu.Oracle) *Stream {
	if oracle == nil {
		oracle = emu.New(p)
	}
	s := &Stream{
		prog:     p,
		mach:     oracle,
		pred:     pred,
		heur:     h,
		maxLen:   h.MaxFragLen(),
		nextSeq:  1,
		onTrue:   true,
		fragMemo: make(map[frag.ID]*frag.Fragment, 256),
		// refill never holds more than five lookaheads (see there).
		oracle:   make([]frag.Dyn, 0, 5*lookahead),
		oracleEA: make([]uint64, 0, 5*lookahead),
	}
	s.ffPool = pool.NewFreeList(func() *FetchedFrag {
		ff := &FetchedFrag{}
		for i := range ff.opsStore {
			ff.opsPtrs[i] = &ff.opsStore[i]
		}
		return ff
	})
	s.refill()
	return s
}

// fragFor returns the fragment for id, memoized: FromCode is pure and
// Fragments are immutable, so one construction per distinct id serves the
// whole simulation (the trace cache and fragment buffers already share
// Fragment pointers the same way).
func (s *Stream) fragFor(id frag.ID) *frag.Fragment {
	if f, ok := s.fragMemo[id]; ok {
		return f
	}
	f := s.heur.FromCode(s.prog, id)
	s.fragMemo[id] = f
	return f
}

// RecycleFrag returns ff to the stream's free list. The owning Unit calls
// this once it has proven no reference survives: ff's ops have all left the
// back-end window and ff is not the stream's divergence bookkeeping target
// (see PrevLastSeq).
func (s *Stream) RecycleFrag(ff *FetchedFrag) { s.ffPool.Put(ff) }

// PrevLastSeq returns the sequence number of the last op of the most
// recently generated fragment (ok=false when none is retained). That op is
// the one live pointer the stream keeps into previously issued state — a
// divergence detected at a fragment boundary flags it retroactively as the
// mispredict point — so its fragment must not be recycled.
func (s *Stream) PrevLastSeq() (uint64, bool) {
	if s.prevLastOp == nil {
		return 0, false
	}
	return s.prevLastOp.Seq, true
}

// PoolStats reports the stream's free-list traffic (fetched-fragment
// recycling).
func (s *Stream) PoolStats() pool.Stats { return s.ffPool.Stats() }

// lookahead is how many oracle entries the stream holds from trueCursor
// on: several fragments' worth.
const lookahead = 8 * frag.MaxLen

// refill tops the lookahead back up to its full depth from trueCursor,
// first trimming the consumed entries if they have piled up.
func (s *Stream) refill() {
	if drop := int(s.trueCursor - s.oracleBase); drop >= 4*lookahead {
		s.oracle = s.oracle[:copy(s.oracle, s.oracle[drop:])]
		s.oracleEA = s.oracleEA[:copy(s.oracleEA, s.oracleEA[drop:])]
		s.oracleBase = s.trueCursor
	}
	for uint64(len(s.oracle)) < s.trueCursor-s.oracleBase+lookahead && !s.mach.Halted() {
		d, err := s.mach.Step()
		if err != nil {
			return
		}
		s.oracle = append(s.oracle, frag.Dyn{PC: d.PC, Inst: d.Inst, Taken: d.Taken})
		s.oracleEA = append(s.oracleEA, d.EA)
	}
}

// oracleAt returns the index of seq's entry in oracle and oracleEA
// (ok=false below trueCursor or beyond the lookahead).
func (s *Stream) oracleAt(seq uint64) (int, bool) {
	if seq < s.trueCursor || seq-s.oracleBase >= uint64(len(s.oracle)) {
		return 0, false
	}
	return int(seq - s.oracleBase), true
}

// Attach wires the optional event sink and pipeline metrics into the
// stream. Called once by NewUnit; nil values are fine.
func (s *Stream) Attach(sink trace.Sink, met *metrics.Pipeline) {
	s.sink = sink
	s.met = met
}

// Tick tells the stream the current cycle (for event timestamps).
func (s *Stream) Tick(now uint64) { s.now = now }

// Done reports whether the true path has been fully generated (the fragment
// containing halt was produced) and no redirect is pending.
func (s *Stream) Done() bool { return s.doneTrue && s.pending == nil }

// Pending returns the outstanding redirect, if any.
func (s *Stream) Pending() *Redirect { return s.pending }

// Accuracy returns generated-fragment statistics.
func (s *Stream) Accuracy() (generated, correct int64) {
	return s.fragsGenerated, s.fragsCorrect
}

// Next generates the next speculative fragment. The caller enforces the
// one-prediction-per-cycle limit. After the program's halt fragment has
// been generated, Next returns ErrNoFragment forever.
func (s *Stream) Next() (*FetchedFrag, error) {
	if s.onTrue {
		if s.doneTrue {
			return nil, ErrNoFragment
		}
		return s.nextTruePath()
	}
	return s.nextWrongPath()
}

// nextTruePath generates a fragment starting at the known correct PC,
// using the predictor for directions and detecting divergence inline.
func (s *Stream) nextTruePath() (*FetchedFrag, error) {
	s.refill()
	start, ok := s.oracleAt(s.trueCursor)
	if !ok {
		// Lookahead empty: program halted exactly at cursor.
		s.doneTrue = true
		return nil, ErrNoFragment
	}
	truePC := s.oracle[start].PC

	// Choose the predicted ID: the predictor's if it agrees on the start
	// PC, otherwise a not-taken walk from the known start.
	pred := s.pred.Predict(&s.specHist)
	id := frag.ID{StartPC: truePC}
	if pred.Valid && pred.ID.StartPC == truePC {
		id = pred.ID
	}
	f := s.fragFor(id)
	if f.Len() == 0 {
		return nil, fmt.Errorf("core: empty fragment at true PC %#x", truePC)
	}

	// Compare against the oracle.
	m := 0
	for ; m < f.Len(); m++ {
		i, ok := s.oracleAt(s.trueCursor + uint64(m))
		if !ok || s.oracle[i].PC != f.PCs[m] {
			break
		}
	}

	// Determine the true fragment at this position for training and
	// retirement history.
	trueLen, trueID := s.splitTrue(s.trueCursor)
	s.pred.Update(&s.retireHist, trueID)

	ff := s.materialize(f, m)
	s.fragsGenerated++
	s.specHist.Push(f.ID.Key())

	if m == f.Len() && f.ID == trueID {
		// Fully correct fragment (boundary and directions included).
		s.fragsCorrect++
		s.retireHist.Push(trueID.Key())
		s.trueCursor += uint64(trueLen)
		if f.Insts[f.Len()-1].Op == isa.OpHalt {
			s.doneTrue = true
		}
		return ff, nil
	}

	// Divergence. Instructions [0,m) are correct path and will commit;
	// the divergence resolves when the culprit executes.
	s.retireHist.Push(trueID.Key())
	red := s.redFree
	s.redFree = nil
	if red == nil {
		red = new(Redirect)
	}
	*red = Redirect{
		TrueSeq:    s.trueCursor + uint64(m),
		retireHist: s.retireHist,
	}
	if i, ok := s.oracleAt(red.TrueSeq); ok {
		red.TruePC = s.oracle[i].PC
	} else {
		// The true path ends inside this fragment (halt reached); the
		// correct prefix will commit and the program finishes. Treat
		// the remaining suffix as wrong path resolved by the last
		// correct instruction.
		red.TruePC = 0
	}
	if m > 0 {
		red.Culprit = ff.Ops[m-1]
	} else {
		red.Culprit = s.prevLastOp
	}
	if red.Culprit == nil {
		// Divergence at the very first fragment with no predecessor
		// (cannot happen: the first fragment starts at the entry PC,
		// which is forced correct for at least one instruction).
		return nil, fmt.Errorf("core: divergence with no culprit at %#x", truePC)
	}
	red.CulpritSeq = red.Culprit.Seq
	red.Culprit.MarkMispredictPoint()
	// Checkpoint the last-writer state as of the correct prefix: the
	// materialize call has already applied all instructions, so rebuild
	// from the snapshot it took at the divergence index.
	red.lastWriter = ff.lastWriterAtWrong
	s.pending = red
	s.onTrue = false
	return ff, nil
}

// splitTrue computes the true fragment boundary and ID at oracle seq
// (>= trueCursor). No fragment is longer than maxLen, so that many entries
// decide the split.
func (s *Stream) splitTrue(seq uint64) (int, frag.ID) {
	held := s.oracle[min(seq-s.oracleBase, uint64(len(s.oracle))):]
	return s.heur.Split(held[:min(len(held), s.maxLen)])
}

// nextWrongPath generates a fragment beyond the divergence point: pure
// speculation through the static image, steered by the predictor where it
// has an opinion and by fallthrough otherwise.
func (s *Stream) nextWrongPath() (*FetchedFrag, error) {
	start, known := s.successorOf(s.prevFrag)
	pred := s.pred.Predict(&s.specHist)
	var id frag.ID
	switch {
	case known && pred.Valid && pred.ID.StartPC == start:
		id = pred.ID
	case known:
		id = frag.ID{StartPC: start}
	case pred.Valid:
		id = pred.ID
	default:
		return nil, ErrNoFragment
	}
	f := s.fragFor(id)
	if f.Len() == 0 {
		return nil, ErrNoFragment
	}
	ff := s.materialize(f, 0) // entirely wrong path
	s.fragsGenerated++
	s.specHist.Push(f.ID.Key())
	return ff, nil
}

// successorOf computes the address the speculative stream continues at
// after fragment f, when that is statically determined (everything except
// indirect terminators).
func (s *Stream) successorOf(f *frag.Fragment) (uint64, bool) {
	if f == nil || f.Len() == 0 {
		return 0, false
	}
	last := f.Insts[f.Len()-1]
	lastPC := f.PCs[f.Len()-1]
	switch {
	case last.IsIndirect():
		return 0, false
	case last.IsDirectJump():
		return uint64(last.Imm) * isa.InstBytes, true
	case last.IsCondBranch():
		if taken, _ := f.DirectionOf(f.Len() - 1); taken {
			return uint64(int64(lastPC) + isa.InstBytes + int64(last.Imm)*isa.InstBytes), true
		}
		return lastPC + isa.InstBytes, true
	default:
		return lastPC + isa.InstBytes, true
	}
}

// materialize assigns sequence numbers, dependence edges and oracle
// effective addresses to the fragment's instructions. wrongFrom is the
// index of the first wrong-path instruction (0 for fully wrong-path
// fragments; f.Len() would mean fully correct but callers pass m).
func (s *Stream) materialize(f *frag.Fragment, wrongFrom int) *FetchedFrag {
	ff := s.ffPool.Get()
	ff.Frag = f
	ff.Ops = ff.opsPtrs[:f.Len()]
	if s.onTrue {
		ff.WrongFrom = wrongFrom
	} else {
		ff.WrongFrom = 0
	}
	if ff.WrongFrom >= f.Len() {
		// The snapshot below is never taken (no wrong-path instruction in
		// this fragment), but a divergence detected at the fragment
		// boundary still reads it: clear any recycled contents so the
		// checkpoint stays the zero value a fresh FetchedFrag carried.
		ff.lastWriterAtWrong = [isa.NumRegs]uint64{}
	}
	// Correct the common caller idiom: nextTruePath passes the matched
	// prefix length m which may equal f.Len() (fully correct).
	for i, in := range f.Insts {
		op := ff.Ops[i]
		// Full-struct reset: zeroing the recycled op clears its
		// scheduling state (issued/done), producers and flags. Zeroing
		// in place is cheaper than copying in a composite literal.
		*op = backend.Op{}
		op.Seq, op.PC, op.Inst = s.nextSeq, f.PCs[i], in
		s.nextSeq++
		op.WrongPath = i >= ff.WrongFrom
		if i == ff.WrongFrom {
			ff.lastWriterAtWrong = s.lastWriter
		}
		// Dependence edges from the speculative last-writer table.
		var srcs [3]isa.Reg
		for _, src := range in.Sources(srcs[:0]) {
			if w := s.lastWriter[src]; w != 0 {
				op.Producers[op.NProd] = w - 1
				op.NProd++
			}
		}
		if rd, ok := in.Dest(); ok {
			s.lastWriter[rd] = op.Seq + 1
		}
		if in.IsMem() && !op.WrongPath {
			if j, ok := s.oracleAt(s.trueCursor + uint64(i)); ok {
				op.EA = s.oracleEA[j]
			}
		}
	}
	if f.Len() > 0 {
		s.prevFrag = f
		s.prevLastOp = ff.Ops[f.Len()-1]
	}
	if s.met != nil {
		s.met.FragLen.Observe(int64(f.Len()))
	}
	if s.sink != nil {
		s.sink.Emit(trace.Event{
			Cycle: s.now,
			Kind:  trace.KindFragPredict,
			Seq:   ff.Ops[0].Seq,
			Frag:  ff.Ops[0].Seq,
			PC:    f.PCs[0],
			N:     int32(f.Len()),
			Arg:   uint64(ff.WrongFrom),
		})
	}
	return ff
}

// ApplyRedirect consumes the pending redirect after the back-end resolved
// the culprit: speculation state is rewound to the divergence point and the
// stream resumes on the true path. It returns the redirect so the simulator
// can squash the window (every op with Seq > CulpritSeq is wrong-path).
func (s *Stream) ApplyRedirect() *Redirect {
	red := s.pending
	if red == nil {
		return nil
	}
	s.pending = nil
	s.onTrue = true
	s.trueCursor = red.TrueSeq
	s.specHist = red.retireHist
	s.retireHist = red.retireHist
	s.lastWriter = red.lastWriter
	s.prevFrag = nil
	s.prevLastOp = nil
	if red.TruePC == 0 {
		// True path ended inside the mispredicted fragment.
		s.doneTrue = true
	}
	s.refill()
	s.redFree = red
	return red
}
