package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
)

// rowRecorder is an Observer keeping every completed cell's result.
type rowRecorder struct {
	mu   sync.Mutex
	rows map[string]*pfe.Result
}

func (r *rowRecorder) Planned(int) {}

func (r *rowRecorder) Completed(bench, key string, _ time.Duration, res *pfe.Result) {
	r.mu.Lock()
	r.rows[bench+"\t"+key] = res
	r.mu.Unlock()
}

// TestFig8RowsMatchRecordedReports re-runs Fig 8 at the CI budgets (20k
// warmup + 60k measured), in full and under DefaultSampleSpec, and checks
// every row field a -json report carries against the rows of the last
// recorded reports at those budgets. The match is exact, float bits
// included. This is the row check the report-diffing regression gate used
// to make within 0.5% of IPC; the cold-sweep benchmark's digests cover the
// same rows at its own budgets.
func TestFig8RowsMatchRecordedReports(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	want := readLines(t, "testdata/fig8-ci-rows.tsv")
	sp := pfe.DefaultSampleSpec()
	var got []string
	for _, mode := range []string{"full", "sampled"} {
		o := CI()
		o.Artifacts = artifact.New(256 << 20)
		if mode == "sampled" {
			o.Sample = &sp
		}
		rec := &rowRecorder{rows: map[string]*pfe.Result{}}
		o.Observer, o.ExperimentID = rec, "fig8"
		if _, err := mustByID(t, "fig8").Run(o); err != nil {
			t.Fatal(err)
		}
		for k, r := range rec.rows {
			got = append(got, mode+"\t"+k+"\t"+rowFields(r))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, recorded reports hold %d", len(got), len(want))
	}
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	for _, w := range want {
		if !gotSet[canonRow(t, w)] {
			t.Errorf("row differs from the recorded report: %s", w)
		}
	}
}

// rowFields renders the report row fields of r, floats in Go's shortest
// round-trip form.
func rowFields(r *pfe.Result) string {
	fs := []float64{r.IPC, r.FetchRate, r.RenameRate, r.FetchSlotUtilization, r.FragPredAccuracy,
		r.TCHitRate, r.L1IMissRate, r.L1DMissRate, r.BufferReuseRate}
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		b.WriteByte('\t')
	}
	fmt.Fprintf(&b, "%d\t%d", r.Cycles, r.Committed)
	return b.String()
}

// canonRow re-renders a recorded line's floats the way rowFields does, so
// the comparison is on float64 values, not on how they were printed.
func canonRow(t *testing.T, line string) string {
	t.Helper()
	f := strings.Split(line, "\t")
	if len(f) != 14 {
		t.Fatalf("bad recorded row %q", line)
	}
	for i := 3; i < 12; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			t.Fatalf("bad float in %q: %v", line, err)
		}
		f[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(f, "\t")
}
