package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format exactly: HELP/TYPE
// lines, family and series ordering, label rendering, and the histogram's
// cumulative _bucket/_sum/_count expansion.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	r.GaugeFunc("t_func", "A function gauge.", func() float64 { return 0.5 })

	h := r.Histogram("t_hist_seconds", "A histogram.", []float64{0.25, 1}, "op", "run")
	h.Observe(0.25) // lands in le=0.25 (bounds are inclusive upper edges)
	h.Observe(0.5)  // le=1
	h.Observe(2)    // +Inf

	c := r.Counter("t_ops_total", "Operations.")
	c.Add(2)
	c.Inc()

	r.Gauge("t_temp", "A labeled gauge.", "zone", "a").Set(1.5)
	r.Gauge("t_temp", "A labeled gauge.", "zone", "b").Set(-2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	want := `# HELP t_func A function gauge.
# TYPE t_func gauge
t_func 0.5
# HELP t_hist_seconds A histogram.
# TYPE t_hist_seconds histogram
t_hist_seconds_bucket{op="run",le="0.25"} 1
t_hist_seconds_bucket{op="run",le="1"} 2
t_hist_seconds_bucket{op="run",le="+Inf"} 3
t_hist_seconds_sum{op="run"} 2.75
t_hist_seconds_count{op="run"} 3
# HELP t_ops_total Operations.
# TYPE t_ops_total counter
t_ops_total 3
# HELP t_temp A labeled gauge.
# TYPE t_temp gauge
t_temp{zone="a"} 1.5
t_temp{zone="b"} -2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "X.")
	c2 := r.Counter("x_total", "X.")
	if c1 != c2 {
		t.Error("same name+labels should return the same counter")
	}
	g1 := r.Gauge("y", "Y.", "k", "v1")
	g2 := r.Gauge("y", "Y.", "k", "v2")
	if g1 == g2 {
		t.Error("different labels should return distinct gauges")
	}

	defer func() {
		if recover() == nil {
			t.Error("registering x_total as a gauge after a counter should panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

// TestRegistryConcurrentRegistration registers metrics from many goroutines
// while WritePrometheus scrapes continuously, the pattern pfe-bench hits
// when Tracker.StartExperiment runs with the HTTP server live. Under -race
// this pins instrument creation being synchronized with exposition, and the
// counter identity check catches two racing registrations each allocating
// their own instrument.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const workers = 8
	counters := make([]*Counter, workers)
	var regs sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		regs.Add(1)
		go func() {
			defer regs.Done()
			counters[i] = r.Counter("t_shared_total", "Shared.")
			counters[i].Inc()
			r.Gauge("t_worker", "Per-worker.", "w", string(rune('a'+i))).Set(float64(i))
			r.GaugeFunc("t_worker_func", "Per-worker func.", func() float64 { return float64(i) }, "w", string(rune('a'+i)))
			r.Histogram("t_worker_seconds", "Per-worker hist.", []float64{1, 10}, "w", string(rune('a'+i))).Observe(float64(i))
		}()
	}
	regs.Wait()
	close(stop)
	scrapers.Wait()

	for i := 1; i < workers; i++ {
		if counters[i] != counters[0] {
			t.Fatalf("concurrent registrations of t_shared_total returned distinct counters (worker %d)", i)
		}
	}
	if got := counters[0].Value(); got != workers {
		t.Errorf("t_shared_total = %d, want %d (an increment was lost to a duplicate instrument)", got, workers)
	}
}

func TestSimCountersExposition(t *testing.T) {
	r := NewRegistry()
	s := NewSimCounters(r)
	s.Cycles.Add(1000)
	s.Committed.Add(2500)
	s.SimsStarted.Inc()

	if got := s.RunningIPC(); got != 2.5 {
		t.Errorf("RunningIPC = %v, want 2.5", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pfe_cycles_total counter",
		"pfe_cycles_total 1000",
		"pfe_committed_instructions_total 2500",
		"pfe_running_ipc 2.5",
		`pfe_stage_seconds_total{stage="fetch"} 0`,
		`pfe_stage_seconds_total{stage="rename_phase1"} 0`,
		`pfe_stage_seconds_total{stage="backend"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestStageProfSampling(t *testing.T) {
	var nilProf *StageProf
	if nilProf.Sampled(0) {
		t.Error("nil profiler must never sample")
	}
	p := NewStageProf(60) // rounds up to 64
	if p.SampleEvery() != 64 {
		t.Errorf("SampleEvery = %d, want 64", p.SampleEvery())
	}
	if !p.Sampled(0) || !p.Sampled(64) || p.Sampled(1) {
		t.Error("sampling mask wrong")
	}
	p.Add(StageFetch, 1000) // 1000ns of sampled time
	if got := p.StageSeconds(StageFetch); got != 64e3/1e9 {
		t.Errorf("StageSeconds = %v, want %v (scaled by sampling factor)", got, 64e3/1e9)
	}
	sec := p.Seconds()
	if len(sec) != 1 || sec["fetch"] == 0 {
		t.Errorf("Seconds() = %v, want only a positive fetch entry", sec)
	}
}

// TestStageProfPhase: a Phased view samples exactly one cycle in every
// SampleEvery at a phase fixed by its seed, feeds the parent's counters, and
// over many runs (seeds) times a run's first cycle about once in
// SampleEvery runs rather than in every run.
func TestStageProfPhase(t *testing.T) {
	var nilProf *StageProf
	if nilProf.Phased(1) != nil {
		t.Error("a nil profiler's view must be nil")
	}
	p := NewStageProf(64)
	firstTimed := 0
	const runs = 4096
	for seed := uint64(0); seed < runs; seed++ {
		v := p.Phased(seed)
		var sampled []uint64
		for c := uint64(0); c < 64*4; c++ {
			if v.Sampled(c) {
				sampled = append(sampled, c)
			}
		}
		if len(sampled) != 4 || sampled[1]-sampled[0] != 64 {
			t.Fatalf("seed %d samples cycles %v, want one in every 64", seed, sampled)
		}
		if p.Phased(seed).Sampled(sampled[0]) != true {
			t.Fatalf("seed %d: phase not deterministic", seed)
		}
		if sampled[0] == 0 {
			firstTimed++
		}
	}
	// Expect runs/64 = 64; a biased phase would give 4096.
	if firstTimed < 32 || firstTimed > 128 {
		t.Errorf("cycle 0 timed in %d of %d runs, want about %d", firstTimed, runs, runs/64)
	}
	p.Phased(7).Add(StageFetch, 1000)
	p.Phased(9).AddTotal(StageWarm, 5000)
	if got := p.StageSeconds(StageFetch); got != 64e3/1e9 {
		t.Errorf("fetch via a view: StageSeconds = %v, want %v", got, 64e3/1e9)
	}
	if got := p.StageSeconds(StageWarm); got != 5e3/1e9 {
		t.Errorf("warm via a view: StageSeconds = %v, want %v", got, 5e3/1e9)
	}
}
