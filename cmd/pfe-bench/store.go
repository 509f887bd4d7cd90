package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/obs"
)

// defaultArtifactDir resolves the persistent store location when
// -artifact-dir is unset: $PFE_ARTIFACT_DIR (how tests and CI redirect the
// store away from the real cache) or ~/.cache/pfe. Empty means no usable
// location (no home directory) — the caller runs without the store.
func defaultArtifactDir() string {
	if d := os.Getenv("PFE_ARTIFACT_DIR"); d != "" {
		return d
	}
	home, err := os.UserHomeDir()
	if err != nil || home == "" {
		return ""
	}
	return filepath.Join(home, ".cache", "pfe")
}

// openStore opens the persistent artifact store for this run, or returns nil
// (with a stderr note) when the store is unavailable — a broken store
// degrades the run to cold-cache, never to a failure.
func openStore(dir string, budgetMiB int64) *store.Store {
	if dir == "" {
		dir = defaultArtifactDir()
	}
	if dir == "" {
		fmt.Fprintln(os.Stderr, "pfe-bench: no artifact store directory (set -artifact-dir, PFE_ARTIFACT_DIR or HOME); running without the persistent store")
		return nil
	}
	st, err := store.Open(dir, budgetMiB<<20)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfe-bench: artifact store unavailable (%v); running without it\n", err)
		return nil
	}
	return st
}

// diskReport converts a store snapshot into the report's artifacts.disk
// block.
func diskReport(s store.Stats) *obs.ArtifactsDiskReport {
	d := &obs.ArtifactsDiskReport{
		Dir:          s.Dir,
		Entries:      s.Entries,
		Bytes:        s.Bytes,
		MaxBytes:     s.MaxBytes,
		Puts:         s.Puts,
		PutErrors:    s.PutErrors,
		Evictions:    s.Evictions,
		Quarantined:  s.Quarantined,
		OrphansSwept: s.Orphans,
		TornTail:     s.TornTail,
		IndexRebuilt: s.Rebuilt,
	}
	for kind, ks := range s.Kinds {
		if ks.Hits > 0 {
			if d.Kinds == nil {
				d.Kinds = map[string]int64{}
			}
			d.Kinds[kind] = ks.Hits
		}
		if ks.Misses > 0 {
			if d.KindMisses == nil {
				d.KindMisses = map[string]int64{}
			}
			d.KindMisses[kind] = ks.Misses
		}
	}
	return d
}

// printStoreSummary writes the end-of-run persistent-store lines to stderr,
// mirroring the in-memory artifacts summary.
func printStoreSummary(st *store.Store) {
	if st == nil {
		return
	}
	s := st.Stats()
	if s.Hits()+s.Misses() == 0 && s.Puts == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"artifact store: %d disk hit(s) / %d miss(es), %d put(s), %d entries, %.1f MiB at %s\n",
		s.Hits(), s.Misses(), s.Puts, s.Entries, float64(s.Bytes)/(1<<20), s.Dir)
	if s.Evictions > 0 {
		fmt.Fprintf(os.Stderr, "artifact store: %d eviction(s) under the %d MiB -artifact-disk budget\n",
			s.Evictions, s.MaxBytes>>20)
	}
	if s.Quarantined > 0 || s.Orphans > 0 || s.TornTail > 0 || s.Rebuilt {
		fmt.Fprintf(os.Stderr,
			"artifact store: integrity events — %d quarantined, %d orphan(s) swept, %d torn journal record(s), rebuilt=%v\n",
			s.Quarantined, s.Orphans, s.TornTail, s.Rebuilt)
	}
}
