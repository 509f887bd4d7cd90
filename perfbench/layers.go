package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/emu"
	"github.com/parallel-frontend/pfe/internal/obs/span"
	"github.com/parallel-frontend/pfe/internal/program"
)

// metric is one named measurement with its unit.
type metric struct {
	name, unit string
	value      float64
}

// fig8Presets are the machines of the Fig 8 grid; sim.ns_per_cycle is
// reported per preset.
var fig8Presets = []pfe.FrontEnd{pfe.W16, pfe.TC, pfe.TC2x, pfe.PF2x8w, pfe.PF4x4w, pfe.PR2x8w, pfe.PR4x4w}

// goStats are Go runtime figures over one sweep.
type goStats struct {
	allocMiB, gcCPUFrac, heapPeakMiB float64
}

// watchGo starts sampling the Go runtime; the returned stop function ends
// the sampler goroutine, waits for it, and returns the figures since start.
func watchGo() func() goStats {
	read := func() []metrics.Sample {
		s := []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
			{Name: "/memory/classes/heap/objects:bytes"},
		}
		metrics.Read(s)
		return s
	}
	start := read()
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() goStats {
		close(done)
		wg.Wait()
		end := read()
		if v := end[3].Value.Uint64(); v > peak {
			peak = v
		}
		g := goStats{
			allocMiB:    float64(end[0].Value.Uint64()-start[0].Value.Uint64()) / (1 << 20),
			heapPeakMiB: float64(peak) / (1 << 20),
		}
		if cpu := end[2].Value.Float64() - start[2].Value.Float64(); cpu > 0 {
			g.gcCPUFrac = (end[1].Value.Float64() - start[1].Value.Float64()) / cpu
		}
		return g
	}
}

func frac(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer split of a traced sweep from its
// observer totals, cache and store statistics, and span records. base is the
// untraced sweep of the same run, for the tracing overhead.
func layerMetrics(tr, base *sweepResult) []metric {
	// Attribute run-phase spans to their cell's preset through the records'
	// inherited cell key.
	simNs := map[string]int64{}
	simCycles := map[string]int64{}
	var simTotal, windows, windowNs, gapNs, gapInsts int64
	for i := range tr.spans {
		r := &tr.spans[i]
		if r.Kind != span.KindPhase {
			continue
		}
		d := r.EndNs - r.StartNs
		switch r.Name {
		case "sim":
			simTotal += d
			if a := r.Annot("cycles"); a != nil {
				simNs[r.Key] += d
				simCycles[r.Key] += a.Int
			}
		case "window":
			windows++
			windowNs += d
		case "gap-warm":
			gapNs += d
			// A gap served from a warm pack was restored, not replayed.
			src := r.Annot("artifact")
			if src == nil || src.Str == "miss" {
				if a := r.Annot("gap_insts"); a != nil {
					gapInsts += a.Int
				}
			}
		}
	}
	c, d := tr.cache, tr.disk
	core := float64(tr.workers) * tr.batchWall.Seconds()
	m := []metric{
		{"experiments.cells_simulated", "count", float64(tr.simulated)},
		{"experiments.cells_memoized", "count", float64(tr.memoized)},
		{"experiments.busy_frac", "frac", ratio(tr.busy, core)},
		{"experiments.idle_core_s", "s", core - tr.busy},
		{"experiments.steals", "count", float64(tr.steals)},
		{"artifact.program_hit_frac", "frac", frac(c.ProgramHits, c.ProgramMisses)},
		{"artifact.tape_hit_frac", "frac", frac(c.TapeHits, c.TapeMisses)},
		{"artifact.result_hit_frac", "frac", frac(c.ResultHits, c.ResultMisses)},
		{"artifact.warm_hit_frac", "frac", frac(c.WarmHits, c.WarmMisses)},
		{"artifact.fallback_steps", "count", float64(c.TapeFallbackSteps)},
		{"store.puts", "count", float64(d.Puts)},
		{"store.bytes", "MiB", float64(d.Bytes) / (1 << 20)},
		{"store.disk_hits", "count", float64(d.Hits())},
		{"store.quarantined", "count", float64(d.Quarantined)},
		{"sim.s", "s", float64(simTotal) / 1e9},
	}
	for _, fe := range fig8Presets {
		k := string(fe)
		m = append(m, metric{"sim.ns_per_cycle." + k, "ns/cycle", ratio(float64(simNs[k]), float64(simCycles[k]))})
	}
	m = append(m,
		metric{"sim.windows", "count", float64(windows)},
		metric{"sim.window_s", "s", float64(windowNs) / 1e9},
		metric{"core.fetch_s", "s", tr.stageSeconds["fetch"]},
		metric{"rename.s", "s", tr.stageSeconds["rename"]},
		metric{"rename.phase1_s", "s", tr.stageSeconds["rename_phase1"]},
		metric{"rename.phase2_s", "s", tr.stageSeconds["rename_phase2"]},
		metric{"backend.s", "s", tr.stageSeconds["backend"]},
		metric{"core.fetched_per_committed", "ratio", ratio(tr.fetched, tr.committed)},
		metric{"pfe.gap_warm_s", "s", float64(gapNs) / 1e9},
		metric{"pfe.gap_warm_minst", "Minst", float64(gapInsts) / 1e6},
		metric{"pfe.warm_builds", "count", float64(c.WarmMisses)},
		metric{"pfe.warm_restores", "count", float64(c.WarmHits)},
		metric{"span.overhead_frac", "frac", tr.wall.Seconds()/base.wall.Seconds() - 1},
		metric{"go.alloc_mib", "MiB", tr.goRuntime.allocMiB},
		metric{"go.gc_cpu_frac", "frac", tr.goRuntime.gcCPUFrac},
		metric{"go.heap_peak_mib", "MiB", tr.goRuntime.heapPeakMiB},
	)
	return m
}

// printShares prints how a traced sweep's cell time splits across the
// program's own phase spans (program-build, tape-build, sim, gap-warm,
// window); "other" is cell time outside every phase: scheduling, the
// result memo, store writes and per-cell set-up.
func printShares(w io.Writer, tr *sweepResult) {
	var cellNs int64
	phaseNs := map[string]int64{}
	for i := range tr.spans {
		r := &tr.spans[i]
		switch r.Kind {
		case span.KindCell:
			cellNs += r.EndNs - r.StartNs
		case span.KindPhase:
			phaseNs[r.Name] += r.EndNs - r.StartNs
		}
	}
	if cellNs == 0 {
		return
	}
	names := make([]string, 0, len(phaseNs))
	for n := range phaseNs {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "layer shares of %.3f cell-seconds:", float64(cellNs)/1e9)
	rest := cellNs
	for _, n := range names {
		fmt.Fprintf(w, " %s %.1f%%", n, 100*float64(phaseNs[n])/float64(cellNs))
		rest -= phaseNs[n]
	}
	fmt.Fprintf(w, " other %.1f%%\n", 100*float64(rest)/float64(cellNs))
}

// seeksPerTape is how many random repositionings artifact.seek_us averages
// per tape.
const seeksPerTape = 200

// timeEntryPoints times each layer's public entry points from outside, on
// the workload's own programs and tape lengths: program.Build, live emulator
// stepping, artifact.Record, tape Reader.Step and Reader.Seek, and store
// Put/Get on a fresh store under scratch. The seed draws the seek targets.
func timeEntryPoints(w workload, benches []string, seed int64, scratch string) ([]metric, error) {
	dir, err := os.MkdirTemp(scratch, "entry-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, storeBytes)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	rng := rand.New(rand.NewSource(seed))
	n := w.tapeInsts()
	var build, live, record, replay, seek, put, get time.Duration
	var liveInsts, tapeInsts, tapeBytes, seeks, puts, gets int64
	for _, b := range benches {
		spec, err := program.SpecByName(b)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p, err := program.Build(spec)
		build += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("program.Build(%s): %w", b, err)
		}

		m := emu.New(p)
		t0 = time.Now()
		for !m.Halted() && m.ICount() < n {
			if _, err := m.Step(); err != nil {
				return nil, fmt.Errorf("emu %s: %w", b, err)
			}
		}
		live += time.Since(t0)
		liveInsts += int64(m.ICount())

		t0 = time.Now()
		tape, err := artifact.Record(p, n)
		record += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("artifact.Record(%s): %w", b, err)
		}
		tapeInsts += int64(tape.Len())
		tapeBytes += tape.Bytes()

		rd := tape.NewReader()
		t0 = time.Now()
		for i := uint64(0); i < tape.Len(); i++ {
			if _, err := rd.Step(); err != nil {
				return nil, fmt.Errorf("replay %s: %w", b, err)
			}
		}
		replay += time.Since(t0)

		for i := 0; i < seeksPerTape; i++ {
			pos := uint64(rng.Int63n(int64(tape.Len())))
			t0 = time.Now()
			err := rd.Seek(pos)
			seek += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("seek %s to %d: %w", b, pos, err)
			}
			seeks++
		}

		prog, err := artifact.EncodeProgram(p)
		if err != nil {
			return nil, err
		}
		for _, blob := range []struct {
			kind, key string
			data      []byte
		}{
			{"program", b, prog},
			{"tape", b, artifact.EncodeTape(tape)},
		} {
			t0 = time.Now()
			err := st.Put(blob.kind, blob.key, blob.data)
			put += time.Since(t0)
			if err != nil {
				return nil, err
			}
			puts++
			t0 = time.Now()
			_, ok := st.Get(blob.kind, blob.key)
			get += time.Since(t0)
			if !ok {
				return nil, fmt.Errorf("store get %s/%s: missing after put", blob.kind, blob.key)
			}
			gets++
		}
	}
	per := func(d time.Duration, n int64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / float64(n)
	}
	return []metric{
		{"program.build_s", "s", build.Seconds()},
		{"emu.ns_per_inst", "ns/inst", per(live, liveInsts, time.Nanosecond)},
		{"artifact.record_s", "s", record.Seconds()},
		{"artifact.tape_bytes_per_inst", "B/inst", ratio(float64(tapeBytes), float64(tapeInsts))},
		{"artifact.replay_ns_per_inst", "ns/inst", per(replay, tapeInsts, time.Nanosecond)},
		{"artifact.seek_us", "us", per(seek, seeks, time.Microsecond)},
		{"store.put_ms", "ms", per(put, puts, time.Millisecond)},
		{"store.get_ms", "ms", per(get, gets, time.Millisecond)},
	}, nil
}
