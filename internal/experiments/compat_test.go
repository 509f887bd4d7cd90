package experiments

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/obs/span"
)

// TestCellHashStable pins the config hash of every cell of `-exp all` at
// 10k+30k and of Fig 8 under DefaultSampleSpec against the hashes recorded
// before the distributed fabric and time-parallel slicing were removed. The
// hash keys the resume journal and the store's result memo, so a drifting
// hash silently orphans every journal and memoized result written before.
//
// Every cell is injected with an immediate error, so nothing is simulated:
// the hash is computed (and annotated on the cell span) before the fault.
func TestCellHashStable(t *testing.T) {
	want := readLines(t, "testdata/cellhash.tsv")
	inject := map[string]string{}
	exps := map[string]bool{}
	for _, l := range want {
		f := strings.Split(l, "\t")
		if len(f) != 5 {
			t.Fatalf("bad golden line %q", l)
		}
		exps[f[1]] = true
		inject[f[2]+"/"+f[3]] = "error"
	}
	sp := pfe.DefaultSampleSpec()
	sweeps := []struct {
		tag  string
		o    Options
		exps []Experiment
	}{
		{"all-10k-30k", Options{Warmup: 10_000, Measure: 30_000}, All()},
		{"fig8-sampled", Options{Warmup: 2_000_000, Measure: 1_000_000, Sample: &sp}, []Experiment{mustByID(t, "fig8")}},
	}
	var got []string
	for _, s := range sweeps {
		spans := span.New()
		o := s.o
		o.Spans, o.Inject, o.Failures = spans, inject, &FailureLog{}
		o.FailBudget, o.RetryBackoff, o.Workers = len(want), -1, 2
		for _, e := range s.exps {
			if !exps[e.ID] {
				continue // table1, table2 and fig7 run no sweep cells
			}
			o.ExperimentID = e.ID
			if _, err := e.Run(o); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		spans.Close()
		for _, r := range spans.Records() {
			if r.Kind != span.KindCell {
				continue
			}
			h := r.Annot("cell_hash")
			if h == nil {
				t.Fatalf("cell %s/%s/%s has no cell_hash", r.Batch, r.Bench, r.Key)
			}
			got = append(got, strings.Join([]string{s.tag, r.Batch, r.Bench, r.Key, h.Str}, "\t"))
		}
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell hash drifted: got %q, golden %q", got[i], want[i])
		}
	}
}

// TestResumeParentJournalWithEpochs replays a journal written by the
// fabric-era harness: its records carry a lease "epoch" field, and one cell
// (mcf/PF-2x8w) was journaled twice, under epochs 1 and 2. The epoch is
// ignored now and the duplicate resolves to the last record, which is safe
// because both carry the result of the same config hash. Every cell must
// replay, and the replayed table must equal a fresh run's.
func TestResumeParentJournalWithEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := LoadResume("testdata/parent-epochs.wal")
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 11 || res.Cells() != 10 || res.Torn != 0 {
		t.Fatalf("resume index: %d records, %d cells, %d torn; want 11, 10, 0", res.Records, res.Cells(), res.Torn)
	}
	o := Options{Warmup: 2000, Measure: 6000, Benchmarks: []string{"gzip", "mcf"}, ExperimentID: "fig4"}
	e := mustByID(t, "fig4")
	fresh, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Resume = res
	replayed, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := res.Replayed.Load(), res.Mismatched.Load(); n != 10 || m != 0 {
		t.Fatalf("replayed %d cells with %d hash mismatches, want 10 and 0", n, m)
	}
	if replayed.String() != fresh.String() {
		t.Fatalf("replayed table differs from a fresh run:\n%s\nfresh:\n%s", replayed, fresh)
	}
}

// TestStoreParentSlicedResultHits opens a store written by the slicing-era
// harness. Its result memo holds Fig 4 gzip cells run with two time-parallel
// slices, each encoded with the now-removed "slices" array. They must still
// decode and hit: the store format is unchanged, and the codec ignores the
// retired field.
func TestStoreParentSlicedResultHits(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, "testdata/parent-sliced-store", dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := artifact.New(0)
	c.SetStore(st, ResultCodec{})
	want := []struct {
		hash, key string
		cycles    uint64
		committed int64
		ipc       float64
	}{
		{"2904c74cc9cdb9ae", "W16", 5089, 6007, 1.1803890744743564},
		{"000fbc795898c01d", "TC", 5141, 6000, 1.167088115152694},
		{"08a491fdd8c807dd", "TC2x", 5141, 6000, 1.167088115152694},
		{"2d80b86a8a1c498d", "PF-2x8w", 4132, 6000, 1.452081316553727},
		{"1f42d112dd43a170", "PF-4x4w", 3636, 6000, 1.6501650165016502},
	}
	for _, w := range want {
		v, info, ok := c.GetResultInfo(w.hash)
		if !ok || info.Source != "disk-hit" {
			t.Fatalf("%s: hit=%v source=%q, want a disk hit", w.key, ok, info.Source)
		}
		r := v.(*pfe.Result)
		if r.Bench != "gzip" || r.Config != w.key || r.Cycles != w.cycles || r.Committed != w.committed || r.IPC != w.ipc {
			t.Errorf("%s: decoded %+v", w.key, r)
		}
	}
	if s := st.Stats(); s.Quarantined != 0 {
		t.Fatalf("%d blobs quarantined", s.Quarantined)
	}
}

func mustByID(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" {
			out = append(out, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// copyTree copies a fixture directory, so opening it (which writes locks
// and may compact the index) never touches the checked-in copy.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
}
