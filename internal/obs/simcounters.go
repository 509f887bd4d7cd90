package obs

// journalFsyncBounds are the pfe_journal_fsync_seconds bucket upper edges:
// sub-100µs (page cache), the common SSD range, and pathological stalls.
var journalFsyncBounds = []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1}

// sampleCIBounds bucket the final sampled-IPC 95% CI half-width: the gate in
// ValidateSampling passes runs well under 0.1 IPC, so the edges resolve the
// healthy range and flag pathological spread.
var sampleCIBounds = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}

// SimCounters is the live telemetry a running simulation feeds: aggregate
// counters shared by every concurrent simulation in the process, flushed in
// batches from the cycle loop (see internal/sim). All fields are safe for
// concurrent use; a nil *SimCounters disables the whole path for the cost
// of one branch per cycle.
type SimCounters struct {
	// Cycles and Committed accumulate across all runs (warmup included);
	// their ratio is the running aggregate IPC exposed as pfe_running_ipc.
	Cycles    *Counter
	Committed *Counter

	// Squashes counts squash events (branch mispredict + live-out).
	Squashes *Counter

	// Redirects counts front-end redirects taken.
	Redirects *Counter

	// SimsStarted and SimsCompleted count whole simulations.
	SimsStarted   *Counter
	SimsCompleted *Counter

	// PoolGets and PoolMisses count the simulator's internal free-list
	// traffic (fragment/op recycling): a get that found no recycled
	// object is a miss, so Gets - Misses is the number of allocations
	// the pools avoided.
	PoolGets   *Counter
	PoolMisses *Counter

	// WatchdogTrips counts forward-progress watchdog trips (deadlocked,
	// livelocked or MaxCycles-exhausted runs).
	WatchdogTrips *Counter

	// CellRetries and CellFailures count experiment-harness cell retry
	// attempts and cells that exhausted their retries.
	CellRetries  *Counter
	CellFailures *Counter

	// JournalFsync observes the crash-safe journal's per-record fsync
	// latency in seconds.
	JournalFsync *Histogram

	// Sampled-run telemetry (pfe_sample_*): detailed windows simulated, gap
	// instructions fast-forwarded through functional warming, instructions
	// served by the tape readers' live-emulation fallback during sampled
	// runs, and the final per-run IPC CI95 half-width distribution.
	SampleWindows  *Counter
	SampleGapInsts *Counter
	SampleFallback *Counter
	SampleCI       *Histogram

	// Prof attributes the simulator's own wall time per pipeline stage;
	// shared by every simulation that runs with these counters attached.
	Prof *StageProf
}

// RunningIPC returns aggregate committed instructions per simulated cycle
// across every run so far (0 before the first flush).
func (s *SimCounters) RunningIPC() float64 {
	cyc := s.Cycles.Value()
	if cyc == 0 {
		return 0
	}
	return float64(s.Committed.Value()) / float64(cyc)
}

// PoolReuseRatio returns the fraction of free-list gets satisfied by a
// recycled object (0 before the first flush).
func (s *SimCounters) PoolReuseRatio() float64 {
	gets := s.PoolGets.Value()
	if gets == 0 {
		return 0
	}
	return float64(gets-s.PoolMisses.Value()) / float64(gets)
}

// NewSimCounters builds the standard simulation telemetry set, registering
// it on r when r is non-nil:
//
//	pfe_cycles_total, pfe_committed_instructions_total, pfe_squashes_total,
//	pfe_redirects_total, pfe_sims_started_total, pfe_sims_completed_total,
//	pfe_pool_gets_total, pfe_pool_misses_total, pfe_pool_reuse_ratio,
//	pfe_running_ipc, pfe_stage_seconds_total{stage=...},
//	pfe_watchdog_trips_total, pfe_cell_retries_total,
//	pfe_cell_failures_total, pfe_journal_fsync_seconds,
//	pfe_sample_windows_total, pfe_sample_gap_instructions_total,
//	pfe_sample_fallback_steps_total, pfe_sample_ci_halfwidth
func NewSimCounters(r *Registry) *SimCounters {
	s := &SimCounters{Prof: NewStageProf(0)}
	if r == nil {
		s.Cycles = NewCounter()
		s.Committed = NewCounter()
		s.Squashes = NewCounter()
		s.Redirects = NewCounter()
		s.SimsStarted = NewCounter()
		s.SimsCompleted = NewCounter()
		s.PoolGets = NewCounter()
		s.PoolMisses = NewCounter()
		s.WatchdogTrips = NewCounter()
		s.CellRetries = NewCounter()
		s.CellFailures = NewCounter()
		s.JournalFsync = NewHistogram(journalFsyncBounds)
		s.SampleWindows = NewCounter()
		s.SampleGapInsts = NewCounter()
		s.SampleFallback = NewCounter()
		s.SampleCI = NewHistogram(sampleCIBounds)
		return s
	}
	s.Cycles = r.Counter("pfe_cycles_total", "Simulated cycles across all runs (warmup included).")
	s.Committed = r.Counter("pfe_committed_instructions_total", "Committed instructions across all runs (warmup included).")
	s.Squashes = r.Counter("pfe_squashes_total", "Squash events across all runs (branch mispredict and live-out mispredict).")
	s.Redirects = r.Counter("pfe_redirects_total", "Front-end redirects taken across all runs.")
	s.SimsStarted = r.Counter("pfe_sims_started_total", "Simulations started.")
	s.SimsCompleted = r.Counter("pfe_sims_completed_total", "Simulations completed.")
	s.PoolGets = r.Counter("pfe_pool_gets_total", "Free-list gets across all runs (simulator object recycling).")
	s.PoolMisses = r.Counter("pfe_pool_misses_total", "Free-list gets that had to allocate (no recycled object available).")
	s.WatchdogTrips = r.Counter("pfe_watchdog_trips_total", "Forward-progress watchdog trips (deadlocked, livelocked or MaxCycles-exhausted runs).")
	s.CellRetries = r.Counter("pfe_cell_retries_total", "Experiment cell retry attempts after a failed or panicked run.")
	s.CellFailures = r.Counter("pfe_cell_failures_total", "Experiment cells that exhausted their retries and were recorded as failures.")
	s.JournalFsync = r.Histogram("pfe_journal_fsync_seconds", "Crash-safe journal per-record fsync latency.", journalFsyncBounds)
	s.SampleWindows = r.Counter("pfe_sample_windows_total", "Detailed windows simulated by sampled runs.")
	s.SampleGapInsts = r.Counter("pfe_sample_gap_instructions_total", "Gap instructions fast-forwarded through functional warming in sampled runs.")
	s.SampleFallback = r.Counter("pfe_sample_fallback_steps_total", "Instructions served by tape readers' live-emulation fallback during sampled runs.")
	s.SampleCI = r.Histogram("pfe_sample_ci_halfwidth", "Final sampled-IPC 95% confidence half-width per sampled run.", sampleCIBounds)
	r.GaugeFunc("pfe_pool_reuse_ratio", "Fraction of free-list gets satisfied by a recycled object.", s.PoolReuseRatio)
	r.GaugeFunc("pfe_running_ipc", "Aggregate committed instructions per simulated cycle across all runs.", s.RunningIPC)
	for _, st := range Stages() {
		st := st
		r.CounterFunc("pfe_stage_seconds_total",
			"Estimated simulator wall time attributed to each pipeline stage (sampled; fetch_oracle is a sub-breakdown of fetch, rename_phase1/2 of rename; warm is sampled runs' functional warming, timed in full).",
			func() float64 { return s.Prof.StageSeconds(st) },
			"stage", st.String())
	}
	return s
}
