// Package shard is the deterministic work-stealing task pool behind the
// experiment sweep machinery (cells across a config grid).
// Scheduling never perturbs results: tasks are identified by index, victims
// are scanned in a fixed order, and callers combine outcomes by index, so a
// batch is bit-identical across worker counts.
package shard

import (
	"context"
	"sync"
	"time"
)

// Stat describes one worker's share of a Run batch.
type Stat struct {
	Ran         int     // tasks this worker executed
	Stolen      int     // tasks it took from other workers' deques
	BusySeconds float64 // wall time spent executing tasks
}

// Steal-granularity tuning: a worker claims enough tasks per deque access to
// amortize the lock when tasks are very short, but never so many that the
// claimed work exceeds ~batchTarget — claimed tasks cannot be stolen, so
// large batches would recreate the tail-skew that stealing exists to fix.
const (
	batchTarget = 10 * time.Millisecond
	maxBatch    = 32
)

// deque is one worker's task queue: the owner takes batches from the front,
// thieves steal the back half — the tasks the owner would reach last, so a
// steal never races the owner for the same locality.
type deque struct {
	mu    sync.Mutex
	tasks []int
}

// takeFront removes up to max tasks from the front of the deque, appending
// them to buf.
func (d *deque) takeFront(buf []int, max int) []int {
	d.mu.Lock()
	n := len(d.tasks)
	if max > n {
		max = n
	}
	buf = append(buf, d.tasks[:max]...)
	d.tasks = d.tasks[max:]
	d.mu.Unlock()
	return buf
}

// stealHalf removes the back half (rounded up) of the deque, appending it
// to buf.
func (d *deque) stealHalf(buf []int) []int {
	d.mu.Lock()
	n := len(d.tasks)
	k := (n + 1) / 2
	buf = append(buf, d.tasks[n-k:]...)
	d.tasks = d.tasks[:n-k]
	d.mu.Unlock()
	return buf
}

// push appends tasks to the back of the deque.
func (d *deque) push(tasks []int) {
	d.mu.Lock()
	d.tasks = append(d.tasks, tasks...)
	d.mu.Unlock()
}

// Hooks observes scheduling decisions without influencing them. All callbacks
// may be nil and must be safe for concurrent use — they run on worker
// goroutines.
type Hooks struct {
	// OnSteal fires after a successful steal: thief took n tasks from victim.
	OnSteal func(thief, victim, n int)
}

// Run executes run(i) exactly once for every i in [0, n), across up to
// workers goroutines, with work stealing: each worker owns a deque seeded
// with a contiguous block of task indices; a worker whose deque runs dry
// scans the other deques in a fixed order (no randomness — scheduling must
// not perturb results) and steals half of the first non-empty one. Stealing
// bounds the tail skew of uneven task durations by the length of one task
// plus one batch rather than by the length of a whole block.
//
// Batch sizes adapt to the measured task duration (an EMA): long tasks are
// claimed one at a time so they stay stealable; very short tasks are claimed
// in groups to amortize deque locking.
//
// The returned per-worker statistics report how the batch was actually
// scheduled. run is called from multiple goroutines and must be safe for
// concurrent use; exactly-once delivery holds because every task index lives
// in exactly one deque and both take and steal remove under the deque's
// lock.
//
// Cancelling ctx drains the pool: each worker finishes the task it is
// executing, then stops claiming new ones. Tasks never claimed are simply
// not run — at-most-once under cancellation, exactly-once otherwise.
func Run(ctx context.Context, n, workers int, run func(idx int)) []Stat {
	return RunHooked(ctx, n, workers, Hooks{}, func(_, idx int) { run(idx) })
}

// RunHooked is Run with two observability extensions: run receives the
// worker index executing the task (for span/worker attribution — scheduling
// is still by task index, so this cannot perturb results), and h's callbacks
// fire on scheduling events.
func RunHooked(ctx context.Context, n, workers int, h Hooks, run func(worker, idx int)) []Stat {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	deques := make([]deque, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		block := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			block = append(block, i)
		}
		deques[w].tasks = block
	}

	stats := make([]Stat, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			self := &deques[w]
			var batch []int
			var busy time.Duration
			var emaNs float64
			batchSize := 1
			for {
				if ctx.Err() != nil {
					break
				}
				batch = self.takeFront(batch[:0], batchSize)
				if len(batch) == 0 {
					// Own deque dry: steal half of the first
					// non-empty victim into it, then retry. A worker
					// exits only when every deque looked empty — a
					// task claimed by another worker mid-scan is that
					// worker's to finish, so exiting early never
					// strands work.
					for i := 1; i < workers; i++ {
						v := (w + i) % workers
						if got := deques[v].stealHalf(nil); len(got) > 0 {
							st.Stolen += len(got)
							self.push(got)
							if h.OnSteal != nil {
								h.OnSteal(w, v, len(got))
							}
							break
						}
					}
					batch = self.takeFront(batch[:0], batchSize)
					if len(batch) == 0 {
						break
					}
				}
				start := time.Now()
				ran := 0
				for _, idx := range batch {
					if ctx.Err() != nil {
						break
					}
					run(w, idx)
					ran++
				}
				d := time.Since(start)
				busy += d
				st.Ran += ran
				if ran == 0 {
					break // canceled before the batch started
				}
				per := float64(d.Nanoseconds()) / float64(ran)
				if emaNs == 0 {
					emaNs = per
				} else {
					emaNs = 0.7*emaNs + 0.3*per
				}
				if emaNs <= 0 {
					// Unmeasurably fast tasks: claim the cap.
					batchSize = maxBatch
				} else {
					batchSize = int(float64(batchTarget.Nanoseconds()) / emaNs)
					if batchSize < 1 {
						batchSize = 1
					}
					if batchSize > maxBatch {
						batchSize = maxBatch
					}
				}
			}
			st.BusySeconds = busy.Seconds()
		}(w)
	}
	wg.Wait()
	return stats
}
