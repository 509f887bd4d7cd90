// Package bpred implements the control-flow predictors: the path-based
// next-trace predictor of Jacobson, Rotenberg and Smith (the paper's
// fragment predictor, Table 1: DOLC D=9 O=4 L=7 C=9, 64 K-entry primary
// table, 16 K-entry secondary table), plus simple direction predictors used
// for ablation studies.
//
// The trace predictor predicts the next fragment's full identity — start PC
// and the directions of every conditional branch inside it — from a hashed
// history of recent fragment IDs. Because directions come with the
// prediction, sequencers need no local branch predictors (§3.1), and the
// same prediction stream drives every front-end in the evaluation so the
// comparison is unbiased.
package bpred

import (
	"fmt"

	"github.com/parallel-frontend/pfe/internal/frag"
)

// DOLC carries the history-hashing parameters of the Jacobson et al.
// predictor: history Depth, bits taken from Older IDs, bits from the Last
// ID, and bits from the Current (most recent) ID.
type DOLC struct {
	Depth   int
	Older   uint
	Last    uint
	Current uint
}

// DefaultDOLC returns the paper's Table 1 parameters.
func DefaultDOLC() DOLC { return DOLC{Depth: 9, Older: 4, Last: 7, Current: 9} }

// maxDepth bounds the history ring so History stays a copyable value type
// cheap enough to checkpoint per in-flight fragment.
const maxDepth = 16

// History is the speculative path history: the keys of the most recent
// fragment IDs, newest last. It is a value type — the fetch unit copies it
// into a checkpoint before each prediction so that recovery after a
// misprediction restores the exact history the paper's hardware would.
type History struct {
	keys [maxDepth]uint64
	// folds[i] packs keys[i] folded once to each DOLC field width
	// (Current, Last and Older, maxFoldBits apart) under the predictor
	// foldedBy, so hashing a history is a shift and XOR per key rather
	// than a fold. A key's folds do not depend on its position, so they
	// survive every later push and are copied with the history. When
	// foldedBy is not the predictor at hand (nil after LoadState, or
	// another predictor), it refolds every key on next use.
	folds    [maxDepth]uint64
	foldedBy *TracePredictor
	n        int // ring fill for warm-up behaviour; saturates at maxDepth
	head     int // index of the oldest key
}

// push appends the key of a new fragment ID to the ring, evicting the
// oldest, and returns its slot. Callers push through TracePredictor.Push,
// which also folds the key.
func (h *History) push(key uint64) int {
	slot := (h.head + h.n) % maxDepth
	h.keys[slot] = key
	if h.n == maxDepth {
		h.head = (h.head + 1) % maxDepth
	} else {
		h.n++
	}
	return slot
}

// recent returns the i-th most recent key (i=0 is newest); zero if the
// history is not that deep yet.
func (h *History) recent(i int) uint64 {
	if i >= h.n {
		return 0
	}
	return h.keys[(h.head+h.n-1-i)%maxDepth]
}

// Config sizes the trace predictor. Tables must be powers of two.
type Config struct {
	PrimaryEntries   int
	SecondaryEntries int
	DOLC             DOLC
}

// DefaultConfig returns Table 1's predictor: 64 K primary, 16 K secondary.
func DefaultConfig() Config {
	return Config{PrimaryEntries: 64 << 10, SecondaryEntries: 16 << 10, DOLC: DefaultDOLC()}
}

// entry is one tagless table entry: a predicted next-fragment ID, stored
// field by field so an entry packs into 16 bytes (a frag.ID alone pads to
// 16), and a 2-bit replacement/confidence counter.
type entry struct {
	pc   uint64
	mask uint32
	nbr  uint8
	ctr  uint8
}

func (e *entry) id() frag.ID { return frag.ID{StartPC: e.pc, BrMask: e.mask, NumBr: e.nbr} }

func (e *entry) empty() bool { return e.pc == 0 && e.mask == 0 && e.nbr == 0 }

func (e *entry) holds(id frag.ID) bool {
	return e.pc == id.StartPC && e.mask == id.BrMask && e.nbr == id.NumBr
}

// TracePredictor is the two-level path-based next-trace predictor.
type TracePredictor struct {
	cfg       Config
	primary   []entry
	secondary []entry

	predicts int64
	updates  int64
	correct  int64
	fromSec  int64

	// The DOLC index layout, fixed by the configuration: the i-th most
	// recent history key contributes its fold at bit pos[i].field of the
	// packed History.folds word (Current, Last or Older width), XORed into
	// the primary index at bit pos[i].shift; the concatenation is then folded
	// to the table by primaryFold, and the newest key alone by
	// secondaryFold.
	cur, last, older folder
	pos              [maxDepth]struct{ field, shift uint }
	primaryFold      folder
	secondaryFold    folder

	// The last key folded and its packed folds: on the correct path the
	// stream and the warmer push the same key onto the speculative and
	// the retirement history, so each key is folded once.
	lastKey   uint64
	lastFolds uint64
	lastOK    bool
}

// maxFoldBits bounds each DOLC field width so that a key's three folds pack
// into one word of History.folds. New panics on a wider field: the paper's
// configurations use at most 9 bits, and silently narrowing a field would
// change the index layout.
const maxFoldBits = 21

// New creates a predictor with the given configuration; sizes are rounded
// up to powers of two. It panics if a DOLC field is wider than maxFoldBits.
func New(cfg Config) *TracePredictor {
	if cfg.PrimaryEntries <= 0 {
		cfg.PrimaryEntries = 64 << 10
	}
	if cfg.SecondaryEntries <= 0 {
		cfg.SecondaryEntries = cfg.PrimaryEntries / 4
	}
	if cfg.DOLC.Depth <= 0 {
		cfg.DOLC = DefaultDOLC()
	}
	if cfg.DOLC.Depth > maxDepth {
		cfg.DOLC.Depth = maxDepth
	}
	if d := cfg.DOLC; max(d.Current, d.Last, d.Older) > maxFoldBits {
		panic(fmt.Sprintf("bpred: DOLC field wider than %d bits: %+v", maxFoldBits, d))
	}
	p := &TracePredictor{
		cfg:       cfg,
		primary:   make([]entry, ceilPow2(cfg.PrimaryEntries)),
		secondary: make([]entry, ceilPow2(cfg.SecondaryEntries)),
		cur:       newFolder(cfg.DOLC.Current),
		last:      newFolder(cfg.DOLC.Last),
		older:     newFolder(cfg.DOLC.Older),
	}
	// Current bits from the newest ID, Last bits from the next, Older bits
	// from each of the remaining Depth-2 IDs, concatenated.
	var width uint
	for i := 0; i < cfg.DOLC.Depth; i++ {
		bits, field := cfg.DOLC.Older, uint(2*maxFoldBits)
		switch i {
		case 0:
			bits, field = cfg.DOLC.Current, 0
		case 1:
			bits, field = cfg.DOLC.Last, maxFoldBits
		}
		p.pos[i].field, p.pos[i].shift = field, width%48
		width += bits
	}
	p.primaryFold = newFolder(tableBits(len(p.primary)))
	p.secondaryFold = newFolder(tableBits(len(p.secondary)))
	return p
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// folder XOR-folds 64-bit values down to a fixed width: v is split into
// width-bit chunks, and the chunks are XORed together. Rather than one loop
// step per chunk, it folds the upper half of the chunks onto the lower half
// until one chunk is left — a fixed number of steps for any value.
type folder struct {
	steps [6]uint // the shift of each halving step; 64 chunks need 6
	n     int
}

func newFolder(bits uint) folder {
	var f folder
	for chunks := (64 + bits - 1) / bits; chunks > 1; {
		chunks = (chunks + 1) / 2
		f.steps[f.n] = chunks * bits
		f.n++
	}
	return f
}

func (f *folder) fold(v uint64) uint64 {
	for _, s := range f.steps[:f.n] {
		v = (v ^ v>>s) & (1<<s - 1)
	}
	return v
}

// foldKey packs key's Current, Last and Older folds into one word, at the
// bit fields New assigned them.
func (p *TracePredictor) foldKey(key uint64) uint64 {
	if !p.lastOK || key != p.lastKey {
		p.lastKey, p.lastOK = key, true
		p.lastFolds = p.cur.fold(key) | p.last.fold(key)<<maxFoldBits | p.older.fold(key)<<(2*maxFoldBits)
	}
	return p.lastFolds
}

// Push appends the key of a new fragment ID to h, evicting the oldest, and
// folds it once for this predictor's index layout.
func (p *TracePredictor) Push(h *History, key uint64) {
	if h.foldedBy != p {
		h.push(key)
		p.refold(h)
		return
	}
	h.folds[h.push(key)] = p.foldKey(key)
}

// refold folds every key h holds under this predictor's layout.
func (p *TracePredictor) refold(h *History) {
	for i := 0; i < h.n; i++ {
		slot := (h.head + i) % maxDepth
		h.folds[slot] = p.foldKey(h.keys[slot])
	}
	h.foldedBy = p
}

// primaryIndex hashes the full DOLC history (see the layout in New). Keys
// the history does not hold yet count as zero, which folds to nothing.
func (p *TracePredictor) primaryIndex(h *History) int {
	if h.foldedBy != p {
		p.refold(h)
	}
	const mask = 1<<maxFoldBits - 1
	var acc uint64
	newest := uint(h.head + h.n - 1)
	for i, pos := range p.pos[:min(p.cfg.DOLC.Depth, h.n)] {
		acc ^= (h.folds[(newest-uint(i))%maxDepth] >> pos.field & mask) << pos.shift
	}
	return int(p.primaryFold.fold(acc))
}

// secondaryIndex hashes only the most recent ID — the shallow-history table
// that warms up fast and catches primary cold misses.
func (p *TracePredictor) secondaryIndex(h *History) int {
	return int(p.secondaryFold.fold(h.recent(0)))
}

// indices returns both table indices for h.
func (p *TracePredictor) indices(h *History) (pi, si int) {
	return p.primaryIndex(h), p.secondaryIndex(h)
}

func tableBits(n int) uint {
	b := uint(0)
	for 1<<b < n {
		b++
	}
	return b
}

// Prediction is the predictor's output for one lookup.
type Prediction struct {
	ID            frag.ID
	Valid         bool // false: no table has a confident entry
	FromSecondary bool
}

// Predict returns the predicted next fragment for the given history.
// The primary table predicts when its entry is confident (counter >= 2);
// otherwise the secondary table predicts if it has ever been trained.
func (p *TracePredictor) Predict(h *History) Prediction {
	pi, si := p.indices(h)
	pred := p.peekAt(pi, si)
	p.predicts++
	if pred.FromSecondary {
		p.fromSec++
	}
	return pred
}

// Update trains both tables with the actual next fragment for the given
// (pre-fragment) history, and records accuracy against what the predictor
// would have said. The fetch engine calls Update on the true fragment
// stream — speculative fetch uses checkpointed histories, so recovery is a
// history restore plus retraining, as in the paper.
func (p *TracePredictor) Update(h *History, actual frag.ID) {
	pi, si := p.indices(h)
	p.trainAt(pi, si, p.peekAt(pi, si), actual)
}

// PredictAndUpdate is Predict followed by Update(h, actual), hashing h and
// reading the tables once: the true-path step of the fetch stream and the
// functional warmer, where the speculative history predicting a fragment
// and the retirement history training it are the same history.
func (p *TracePredictor) PredictAndUpdate(h *History, actual frag.ID) Prediction {
	pi, si := p.indices(h)
	pred := p.peekAt(pi, si)
	p.predicts++
	if pred.FromSecondary {
		p.fromSec++
	}
	p.trainAt(pi, si, pred, actual)
	return pred
}

// trainAt is Update over already-computed table indices; before is what
// the tables predicted there.
func (p *TracePredictor) trainAt(pi, si int, before Prediction, actual frag.ID) {
	p.updates++
	if before.Valid && before.ID == actual {
		p.correct++
	}
	train := func(e *entry) {
		if e.holds(actual) {
			if e.ctr < 3 {
				e.ctr++
			}
			return
		}
		if e.ctr > 0 {
			e.ctr--
			return
		}
		*e = entry{pc: actual.StartPC, mask: actual.BrMask, nbr: actual.NumBr, ctr: 1}
	}
	train(&p.primary[pi])
	train(&p.secondary[si])
}

// peekAt is the tables' prediction at already-computed indices, without
// statistics.
func (p *TracePredictor) peekAt(pi, si int) Prediction {
	pe := &p.primary[pi]
	if pe.ctr >= 2 && !pe.empty() {
		return Prediction{ID: pe.id(), Valid: true}
	}
	if se := &p.secondary[si]; !se.empty() {
		return Prediction{ID: se.id(), Valid: true, FromSecondary: true}
	}
	if !pe.empty() {
		return Prediction{ID: pe.id(), Valid: true}
	}
	return Prediction{}
}

// Accuracy returns the fraction of Update calls whose fragment the
// predictor had right, and the total number of trained fragments.
func (p *TracePredictor) Accuracy() (float64, int64) {
	if p.updates == 0 {
		return 0, 0
	}
	return float64(p.correct) / float64(p.updates), p.updates
}

// Stats returns raw counters: predictions made, correct, and how many came
// from the secondary table.
func (p *TracePredictor) Stats() (predicts, correct, fromSecondary int64) {
	return p.predicts, p.correct, p.fromSec
}
