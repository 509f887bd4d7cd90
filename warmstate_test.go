package pfe

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/program"
)

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// warmStateOpts is a sampled plan whose first-window boundary clears
// warmStateMinInsts, so the run snapshots (or restores) warm state whenever
// an artifact cache is attached.
func warmStateOpts() RunOptions {
	return RunOptions{
		WarmupInsts:  300_000,
		MeasureInsts: 40_000,
		Sample:       &SampleSpec{Unit: 1_000, Period: 5_000, Warmup: 1_000},
	}
}

// TestWarmStateSampledBitIdentical is the warm-state determinism guarantee
// for sampled runs: a cell that restores the functionally warmed front-end
// state from a snapshot — in-process, from the disk store of an earlier
// process, or after an earlier cell of a different width shared it — is
// bit-identical to the cell that replayed the whole prefix. Covers a plain
// machine and one with every optional trained structure (live-out predictor
// and trace cache).
func TestWarmStateSampledBitIdentical(t *testing.T) {
	for _, fe := range []FrontEnd{W16, TCPR2x8w} {
		fe := fe
		t.Run(string(fe), func(t *testing.T) {
			m := Preset(fe)
			opts := warmStateOpts()
			baseline, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			cold := artifact.New(0)
			cold.SetStore(openStoreT(t, dir), nil)
			opts.Artifacts = cold
			built, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, built) {
				t.Fatalf("snapshot-building run diverged from plain run:\n plain: %+v\n built: %+v", baseline, built)
			}
			if s := cold.Stats(); s.WarmMisses != 1 || s.WarmHits != 0 {
				t.Fatalf("cold run warm traffic: %d hits / %d misses, want 0 / 1", s.WarmHits, s.WarmMisses)
			}

			// Same process, same cache: restores from memory.
			mem, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, mem) {
				t.Fatal("memory-restored run diverged from plain run")
			}
			if s := cold.Stats(); s.WarmHits != 1 {
				t.Fatalf("warm hits = %d after re-run, want 1", s.WarmHits)
			}

			// Fresh cache over the same store: a new process restoring the
			// snapshot from disk.
			disk := artifact.New(0)
			disk.SetStore(openStoreT(t, dir), nil)
			opts.Artifacts = disk
			restored, err := Run("gcc", m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, restored) {
				t.Fatal("disk-restored run diverged from plain run")
			}
			if s := disk.Stats(); s.WarmMisses != 1 {
				t.Fatalf("disk-restored warm misses = %d, want 1 (served below the memory tier)", s.WarmMisses)
			}
		})
	}
}

// TestWarmStateSharedAcrossWidths pins the class hash's point: machines
// differing only in width / parallelism (not in any warm-relevant structure)
// share one snapshot, so a width sweep warms each benchmark once.
func TestWarmStateSharedAcrossWidths(t *testing.T) {
	cache := artifact.New(0)
	opts := warmStateOpts()
	opts.Artifacts = cache
	if _, err := Run("gzip", Preset(PR2x8w), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("gzip", Preset(PR4x4w), opts); err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.WarmMisses != 1 || s.WarmHits != 1 {
		t.Fatalf("warm traffic across widths: %d hits / %d misses, want 1 / 1 (shared snapshot)", s.WarmHits, s.WarmMisses)
	}
	// A warm-relevant change (different predictor tables via a different
	// fetch engine) must NOT share.
	if _, err := Run("gzip", Preset(TC), opts); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.WarmMisses != 2 {
		t.Fatalf("warm misses = %d after trace-cache machine, want 2 (distinct class)", s.WarmMisses)
	}
	// The fetch engine kind alone is not warm-relevant: a sequential-fetch
	// W16 and a parallel-fetch PF2x8w — neither trains a live-out predictor
	// or a trace cache — share one class.
	if _, err := Run("gzip", Preset(W16), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("gzip", Preset(PF2x8w), opts); err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.WarmMisses != 3 || s.WarmHits != 2 {
		t.Fatalf("warm traffic across fetch kinds: %d hits / %d misses, want 2 / 3", s.WarmHits, s.WarmMisses)
	}
}

// TestWarmStateUnionWarming pins union (matrix) warming: with the sweep
// roster attached, the first cell to reach the boundary replays the prefix
// once, training every distinct warm class side by side, and every later
// cell of the sweep restores — one warm miss for the whole grid. Results
// stay bit-identical to solo runs, and the union-built snapshots are
// byte-for-byte the snapshots solo warming writes.
func TestWarmStateUnionWarming(t *testing.T) {
	fes := []FrontEnd{W16, TC, TC2x, PF2x8w, PF4x4w, PR2x8w, PR4x4w}
	roster := make([]Machine, len(fes))
	for i, fe := range fes {
		roster[i] = Preset(fe)
	}

	// Solo baselines: no artifacts at all.
	base := make([]*Result, len(fes))
	for i, fe := range fes {
		r, err := Run("gzip", Preset(fe), warmStateOpts())
		if err != nil {
			t.Fatal(err)
		}
		base[i] = r
	}

	opts := warmStateOpts()
	opts.Artifacts = artifact.New(0)
	unionStore := openStoreT(t, t.TempDir())
	opts.Artifacts.SetStore(unionStore, nil)
	opts.WarmRoster = roster
	for i, fe := range fes {
		got, err := Run("gzip", Preset(fe), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base[i], got) {
			t.Fatalf("%s: union-warmed run diverged from solo run", fe)
		}
	}
	// 7 cells, 4 warm classes ({W16,PF*}, {TC}, {TC2x}, {PR*}) — the first
	// cell's union build covers all of them, every other cell restores.
	if s := opts.Artifacts.Stats(); s.WarmMisses != 1 || s.WarmHits != 6 {
		t.Fatalf("union warm traffic: %d hits / %d misses, want 6 / 1", s.WarmHits, s.WarmMisses)
	}

	// Byte-identity of a sibling snapshot: solo-warm the trace-cache class
	// in its own store and compare blobs.
	solo := warmStateOpts()
	solo.Artifacts = artifact.New(0)
	soloStore := openStoreT(t, t.TempDir())
	solo.Artifacts.SetStore(soloStore, nil)
	if _, err := Run("gzip", Preset(TC), solo); err != nil {
		t.Fatal(err)
	}
	spec, err := program.SpecByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	boundary := uint64(solo.WarmupInsts - solo.Sample.Warmup)
	class := warmClassHash(Preset(TC))
	soloPack, ok := soloStore.Get("warm", warmPackKey(spec, warmClasses([]Machine{Preset(TC)}), boundary))
	if !ok {
		t.Fatal("solo run left no warm pack")
	}
	unionPack, ok := unionStore.Get("warm", warmPackKey(spec, warmClasses(roster), boundary))
	if !ok {
		t.Fatal("union build left no warm pack")
	}
	want, err := warmPackSection(soloPack, class)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := warmPackSection(unionPack, class)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, gotBytes) {
		t.Fatalf("union-built snapshot differs from solo-built snapshot (%d vs %d bytes)", len(gotBytes), len(want))
	}
}

// TestWarmStateQuarantineFallback poisons a stored snapshot (checksum-valid
// frame, semantically broken payload) and proves the run survives: the blob
// is quarantined, the prefix replayed, and the result stays bit-identical.
func TestWarmStateQuarantineFallback(t *testing.T) {
	m := Preset(W16)
	opts := warmStateOpts()
	baseline, err := Run("gzip", m, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	seed := artifact.New(0)
	st := openStoreT(t, dir)
	seed.SetStore(st, nil)
	opts.Artifacts = seed
	if _, err := Run("gzip", m, opts); err != nil {
		t.Fatal(err)
	}

	// Overwrite the snapshot with garbage that still carries a valid store
	// frame (Put recomputes the checksum), then run from a fresh cache. The
	// boundary is the run warmup minus the per-window detailed warmup.
	spec, err := program.SpecByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	key := warmPackKey(spec, warmClasses([]Machine{m}), uint64(opts.WarmupInsts-opts.Sample.Warmup))
	if !st.Has("warm", key) {
		t.Fatalf("seeding run left no warm snapshot under %s", key)
	}
	if err := st.Put("warm", key, []byte("not a warm snapshot")); err != nil {
		t.Fatal(err)
	}
	poisoned := artifact.New(0)
	poisoned.SetStore(st, nil)
	opts.Artifacts = poisoned
	got, err := Run("gzip", m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, got) {
		t.Fatal("run with poisoned snapshot diverged from plain run")
	}
	if st.Stats().Quarantined == 0 {
		t.Fatal("poisoned snapshot was not quarantined")
	}
}
