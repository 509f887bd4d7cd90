// Package backend models the paper's aggressive out-of-order core (Table 1):
// a 256-entry instruction window, 16-wide commit, abundant functional units
// (16 integer ALUs, 4 integer multipliers, 4 FP adders, 1 FP multiplier,
// 4 load/store units), with load/store latency supplied by the data-cache
// hierarchy. The back-end is deliberately generous — the paper's point is to
// make the front-end the bottleneck — but it models true data-dependence
// wake-up, FU contention and in-order commit, because branch-resolution
// latency (and therefore the cost of a front-end misprediction) emerges from
// the dependence schedule.
package backend

import (
	"fmt"

	"github.com/parallel-frontend/pfe/internal/isa"
	"github.com/parallel-frontend/pfe/internal/mem"
	"github.com/parallel-frontend/pfe/internal/trace"
)

// Config sizes the back-end.
type Config struct {
	WindowSize  int
	CommitWidth int
	FUCounts    [isa.NumClasses]int
}

// DefaultConfig returns Table 1's back-end.
func DefaultConfig() Config {
	var fu [isa.NumClasses]int
	fu[isa.ClassIntALU] = 16
	fu[isa.ClassIntMul] = 4
	fu[isa.ClassFPAdd] = 4
	fu[isa.ClassFPMul] = 1
	fu[isa.ClassLoadStore] = 4
	return Config{WindowSize: 256, CommitWidth: 16, FUCounts: fu}
}

// Op is one in-flight instruction. The front-end fills identity and
// dependence fields at rename; the back-end owns scheduling state.
type Op struct {
	Seq  uint64 // speculative program order (squash key, commit order)
	PC   uint64
	Inst isa.Inst

	// Producers are the Seqs of the instructions producing this op's
	// register sources (up to 3; NProd valid entries), all older than the
	// op itself. Ops whose producers have left the window treat those
	// sources as ready.
	Producers [3]uint64
	NProd     int

	EA        uint64 // effective address for right-path memory ops
	WrongPath bool

	// mispredict marks the op whose execution reveals a front-end
	// misprediction; when it completes, the simulator redirects fetch.
	mispredict bool

	issued bool
	done   uint64 // completion cycle (valid once issued)

	win *Backend // the window holding the op; nil outside any window
}

// Issued reports whether the op has been selected for execution, and Done
// its completion cycle.
func (o *Op) Issued() bool { return o.issued }
func (o *Op) Done() uint64 { return o.done }

// MispredictPoint reports whether the op is flagged as the one whose
// execution reveals a front-end misprediction.
func (o *Op) MispredictPoint() bool { return o.mispredict }

// MarkMispredictPoint flags the op as a mispredict point. It may be called
// before the op is inserted or while it sits in a window (the stream flags
// the previous fragment's last op retroactively); the window learns of the
// flag either way.
func (o *Op) MarkMispredictPoint() {
	o.mispredict = true
	if o.win != nil {
		o.win.addPoint(o)
	}
}

// ResetExec clears scheduling state so a squashed op can be re-inserted
// (live-out misprediction recovery re-renames squashed fragments). The op
// must be squashed from the window before its next Cycle.
func (o *Op) ResetExec() {
	o.issued = false
	o.done = 0
}

// waiter is an unissued op in the issue queue with its cached wakeup
// state: readyAt is the cycle every in-window producer's result is
// available, or unknownReady while some producer has not issued — blk, once
// found, so that later cycles recheck only that one. A producer cannot
// leave the window unissued without squashing its consumers too, so the
// cache only goes stale when an older op enters the window (forgetReady).
type waiter struct {
	op      *Op
	readyAt uint64
	blk     *Op
}

const unknownReady = ^uint64(0)

// Backend is the out-of-order execution engine.
//
// The window is three seq-ordered lists over the same in-flight ops: order
// holds every op (commit walks its head), waiting only the unissued ones
// with their wakeup state (the issue scan), and points only the flagged
// mispredict points (the resolution check). Producers are found through
// slots, a direct-mapped table indexed by seq whose entries are exactly the
// in-window ops.
type Backend struct {
	cfg Config
	d   *mem.Cache // L1 data cache (loads/stores go through it)

	// order is the seq-ordered FIFO of in-flight ops. Commit advances head
	// instead of re-slicing the front (which loses front capacity and
	// forces periodic reallocation); the vacated prefix is compacted once
	// it reaches a window's worth of slots, so the backing array's
	// capacity — and the cycle loop's allocation count — stays constant.
	order []*Op
	head  int

	waiting []waiter // unissued in-window ops, seq order
	points  []*Op    // in-window ops flagged as mispredict points, seq order

	// wake is the soonest cached ready cycle left by the last issue scan.
	// Until then no waiting op can issue: the others are blocked on an
	// unissued producer, and producers issue only in scans, which also
	// recheck their (younger) consumers. Insert resets it, so Cycle skips
	// the scan only when it provably issues nothing.
	wake uint64

	// slots[seq&mask] is the in-window op with that seq, or nil. The
	// table is a power of two and doubles only when two in-window ops
	// would share a slot, so its size tracks the seq span of the window
	// (squashes leave gaps), not the number of ops.
	slots []*Op
	mask  uint64

	// res is the reused Resolution returned by Cycle; valid until the next
	// Cycle call (the simulator consumes it within the same cycle).
	res Resolution

	committed     int64
	wrongPathExec int64
	loadCount     int64

	// commitBarrier is the lowest sequence number not yet written into
	// the window by rename (reorder-buffer slots are allocated to older
	// fragments in order, so an op at or above the barrier cannot be the
	// true commit head even when every inserted op below it has
	// committed). Maintained by the front-end each cycle.
	commitBarrier uint64

	// CommitHook, if set, observes every committed op in program order —
	// instrumentation for correctness tests and tracing tools.
	CommitHook func(*Op)

	// Sink, if non-nil, receives a dispatch event for every op entering
	// the window and a commit event for every op retiring. Events carry
	// the cycle last passed to StartCycle.
	Sink trace.Sink

	now uint64 // current cycle (StartCycle), for Insert-time events
}

// New creates a back-end over the given data cache.
func New(cfg Config, dcache *mem.Cache) *Backend {
	if cfg.WindowSize <= 0 {
		cfg = DefaultConfig()
	}
	n := 1
	for n < 2*cfg.WindowSize {
		n <<= 1
	}
	return &Backend{
		cfg:           cfg,
		d:             dcache,
		slots:         make([]*Op, n),
		mask:          uint64(n - 1),
		commitBarrier: ^uint64(0),
	}
}

// StartCycle tells the back-end the current cycle before the front-end runs,
// so dispatch events emitted from Insert carry the right timestamp (Insert
// has no cycle parameter of its own).
func (b *Backend) StartCycle(now uint64) { b.now = now }

// SetCommitBarrier tells the back-end the lowest sequence number the rename
// stage has not yet delivered; commit never passes it. ^uint64(0) means no
// barrier (everything in flight has been delivered).
func (b *Backend) SetCommitBarrier(seq uint64) { b.commitBarrier = seq }

// FreeSlots returns how many more ops the window can accept.
func (b *Backend) FreeSlots() int { return b.cfg.WindowSize - (len(b.order) - b.head) }

// Insert places a renamed op into the window. Caller must respect
// FreeSlots. Ops must be inserted in non-decreasing Seq order per fragment,
// but fragments renamed in parallel may interleave; the window keeps seq
// order internally so commit stays program-ordered.
func (b *Backend) Insert(op *Op) {
	if b.Sink != nil {
		b.Sink.Emit(trace.Event{
			Cycle: b.now,
			Kind:  trace.KindDispatch,
			Seq:   op.Seq,
			PC:    op.PC,
			N:     1,
		})
	}
	op.win = b
	b.place(op)
	b.order = insertBySeq(b.order, b.head, op)
	// An older op can arrive after younger ones (parallel rename): a
	// younger op that cached its ready cycle while this producer was
	// absent from the window must wait for it after all.
	b.forgetReady(op.Seq)
	if !op.issued {
		b.wait(op)
	}
	if op.mispredict {
		b.points = insertBySeq(b.points, 0, op)
	}
}

// insertBySeq inserts op into list[from:], which is in seq order. The
// common case — op is the youngest — is an append.
func insertBySeq(list []*Op, from int, op *Op) []*Op {
	n := len(list)
	if n == from || list[n-1].Seq < op.Seq {
		return append(list, op)
	}
	i := n
	for i > from && list[i-1].Seq > op.Seq {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = op
	return list
}

// truncateFrom drops the seq-ordered list's suffix at or above seq.
func truncateFrom(list []*Op, seq uint64) []*Op {
	n := len(list)
	for n > 0 && list[n-1].Seq >= seq {
		n--
		list[n] = nil
	}
	return list[:n]
}

// wait queues op for issue in seq order.
func (b *Backend) wait(op *Op) {
	b.wake = 0
	w := waiter{op: op, readyAt: unknownReady}
	i := len(b.waiting)
	for i > 0 && b.waiting[i-1].op.Seq > op.Seq {
		i--
	}
	b.waiting = append(b.waiting, waiter{})
	copy(b.waiting[i+1:], b.waiting[i:])
	b.waiting[i] = w
}

// forgetReady drops the cached ready cycle of every waiting op that names
// seq as a producer.
func (b *Backend) forgetReady(seq uint64) {
	for i := len(b.waiting) - 1; i >= 0 && b.waiting[i].op.Seq > seq; i-- {
		w := &b.waiting[i]
		for j := 0; j < w.op.NProd; j++ {
			if w.op.Producers[j] == seq {
				w.readyAt = unknownReady
				break
			}
		}
	}
}

// place enters op into the producer table, doubling the table until no
// other in-window op shares op's slot.
func (b *Backend) place(op *Op) {
	for {
		i := op.Seq & b.mask
		cur := b.slots[i]
		if cur == nil {
			b.slots[i] = op
			return
		}
		if cur.Seq == op.Seq {
			panic(fmt.Sprintf("backend: seq %d inserted while already in the window", op.Seq))
		}
		b.grow()
	}
}

// grow rebuilds the producer table at the smallest larger power of two in
// which the in-window ops occupy distinct slots.
func (b *Backend) grow() {
	for size := 2 * len(b.slots); ; size *= 2 {
		slots, mask := make([]*Op, size), uint64(size-1)
		ok := true
		for _, op := range b.order[b.head:] {
			i := op.Seq & mask
			if slots[i] != nil {
				ok = false
				break
			}
			slots[i] = op
		}
		if ok {
			b.slots, b.mask = slots, mask
			return
		}
	}
}

// leave takes op out of the producer table: from now on it reads as having
// left the window.
func (b *Backend) leave(op *Op) {
	if i := op.Seq & b.mask; b.slots[i] == op {
		b.slots[i] = nil
	}
	op.win = nil
}

// producer returns the in-window op with the given seq, or nil.
func (b *Backend) producer(seq uint64) *Op {
	if p := b.slots[seq&b.mask]; p != nil && p.Seq == seq {
		return p
	}
	return nil
}

// readyAt returns the cycle by which all of w.op's in-window producers have
// completed, or unknownReady while one of them has not issued.
func (b *Backend) readyAt(w *waiter) uint64 {
	if w.blk != nil {
		if !w.blk.issued {
			return unknownReady
		}
		w.blk = nil
	}
	op := w.op
	var at uint64
	for i := 0; i < op.NProd; i++ {
		if p := b.producer(op.Producers[i]); p != nil {
			if !p.issued {
				w.blk = p
				return unknownReady
			}
			at = max(at, p.done)
		}
	}
	return at
}

// Resolution describes a completed mispredict-point op the simulator must
// act on.
type Resolution struct {
	Op    *Op
	Cycle uint64 // completion cycle
}

// Cycle advances the back-end by one cycle: select-and-issue oldest-first
// bounded by FU counts, then commit in order. It returns the number of
// instructions committed this cycle and the oldest mispredict-point op that
// completed at or before now (nil if none). The Resolution is reused across
// cycles: callers must consume it before the next Cycle call.
func (b *Backend) Cycle(now uint64) (int, *Resolution) {
	if now >= b.wake {
		b.issueReady(now)
	}

	// The oldest resolved mispredict point.
	var res *Resolution
	for _, op := range b.points {
		if op.issued && op.done <= now {
			b.res = Resolution{Op: op, Cycle: op.done}
			res = &b.res
			break
		}
	}

	// Commit in order.
	committed := 0
	for committed < b.cfg.CommitWidth && b.head < len(b.order) {
		head := b.order[b.head]
		if head.Seq >= b.commitBarrier {
			break // an older op has not been renamed yet
		}
		if !head.issued || head.done > now || head.WrongPath {
			break
		}
		// A mispredict point must not commit before the simulator has
		// redirected; the simulator squashes younger ops at the
		// resolution cycle, after which the point itself commits.
		if head.mispredict {
			break
		}
		b.order[b.head] = nil
		b.head++
		b.leave(head)
		committed++
		b.committed++
		if b.Sink != nil {
			b.Sink.Emit(trace.Event{
				Cycle: now,
				Kind:  trace.KindCommit,
				Seq:   head.Seq,
				PC:    head.PC,
				N:     1,
			})
		}
		if b.CommitHook != nil {
			b.CommitHook(head)
		}
	}
	b.compact()
	return committed, res
}

// issueReady issues ready waiting ops oldest-first, bounded per FU class.
// Issued ops leave the waiting list.
func (b *Backend) issueReady(now uint64) {
	var used [isa.NumClasses]int
	wake := unknownReady
	k := 0 // waiting[:k] are the ops kept so far
	for i := range b.waiting {
		w := &b.waiting[i]
		if w.readyAt == unknownReady {
			w.readyAt = b.readyAt(w)
		}
		if w.readyAt <= now {
			op := w.op
			if c := op.Inst.Classify(); used[c] < b.cfg.FUCounts[c] {
				used[c]++
				op.issued = true
				b.issue(op, now)
				continue
			}
		}
		wake = min(wake, w.readyAt)
		if k != i {
			b.waiting[k] = *w
		}
		k++
	}
	clear(b.waiting[k:])
	b.waiting = b.waiting[:k]
	b.wake = wake
}

// compact reclaims the committed prefix of the order FIFO once it reaches a
// window's worth of slots, keeping the backing array's capacity bounded by
// ~2x the window (the live span is at most WindowSize ops). Amortized cost
// is one pointer move per committed op.
func (b *Backend) compact() {
	if b.head == len(b.order) {
		b.order = b.order[:0]
		b.head = 0
		return
	}
	if b.head < b.cfg.WindowSize {
		return
	}
	n := copy(b.order, b.order[b.head:])
	clear(b.order[n:])
	b.order = b.order[:n]
	b.head = 0
}

// issue computes the op's completion time, charging FU latency and, for
// right-path memory ops, the data-cache access.
func (b *Backend) issue(op *Op, now uint64) {
	lat := uint64(op.Inst.Latency())
	if op.Inst.IsMem() && !op.WrongPath && b.d != nil {
		done := b.d.Access(op.EA, op.Inst.IsStore(), now)
		op.done = done + lat - 1
		b.loadCount++
		return
	}
	if op.WrongPath {
		b.wrongPathExec++
	}
	op.done = now + lat
}

// addPoint records a mispredict point flagged while op is in the window.
func (b *Backend) addPoint(op *Op) {
	for _, p := range b.points {
		if p == op {
			return
		}
	}
	b.points = insertBySeq(b.points, 0, op)
}

// ClearMispredictPoint commits a resolved mispredict point after the
// simulator has handled the redirect: the op itself is on the correct path
// (it is the mispredicted branch, which really executed), so it simply
// stops blocking commit.
func (b *Backend) ClearMispredictPoint(op *Op) {
	op.mispredict = false
	for i, p := range b.points {
		if p == op {
			n := copy(b.points[i:], b.points[i+1:])
			b.points[i+n] = nil
			b.points = b.points[:i+n]
			return
		}
	}
}

// SquashFrom removes every op with Seq >= seq (wrong-path ops after a
// redirect).
func (b *Backend) SquashFrom(seq uint64) int {
	n := len(b.order)
	cut := n
	for cut > b.head && b.order[cut-1].Seq >= seq {
		cut--
	}
	for i := cut; i < n; i++ {
		b.leave(b.order[i])
		b.order[i] = nil
	}
	b.order = b.order[:cut]
	w := len(b.waiting)
	for w > 0 && b.waiting[w-1].op.Seq >= seq {
		w--
	}
	clear(b.waiting[w:])
	b.waiting = b.waiting[:w]
	b.points = truncateFrom(b.points, seq)
	return n - cut
}

// DebugHead describes the window head for deadlock diagnostics.
func (b *Backend) DebugHead() string {
	if b.head == len(b.order) {
		return "window empty"
	}
	h := b.order[b.head]
	return fmt.Sprintf("head seq=%d pc=%#x op=%v issued=%v done=%d wrong=%v mp=%v nprod=%d prods=%v inflight=%d",
		h.Seq, h.PC, h.Inst.Op, h.issued, h.done, h.WrongPath, h.mispredict, h.NProd, h.Producers[:h.NProd], b.InFlight())
}

// OldestSeq returns the seq of the oldest in-flight op (ok=false if empty).
func (b *Backend) OldestSeq() (uint64, bool) {
	if b.head == len(b.order) {
		return 0, false
	}
	return b.order[b.head].Seq, true
}

// InFlight returns the number of ops in the window.
func (b *Backend) InFlight() int { return len(b.order) - b.head }

// Committed returns the total instructions committed.
func (b *Backend) Committed() int64 { return b.committed }

// WrongPathExecuted returns how many wrong-path ops were issued.
func (b *Backend) WrongPathExecuted() int64 { return b.wrongPathExec }
