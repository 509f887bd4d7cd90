package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fixtureReport builds a report with one experiment ("fig8") whose rows have
// the given bench→IPC values.
func fixtureReport(ipc map[string]float64) *Report {
	b := NewReportBuilder("pfe-bench", RunSpec{WarmupInsts: 1, MeasureInsts: 2, Experiments: []string{"fig8"}})
	b.StartExperiment("fig8", "Figure 8: Performance")
	for bench, v := range ipc {
		b.AddRow("fig8", Row{Bench: bench, Config: "PR-2x8w", IPC: v, Cycles: 100, Committed: int64(100 * v)})
	}
	b.FinishExperiment("fig8", 2*time.Second)
	return b.Finalize(2 * time.Second)
}

func TestReportRoundTrip(t *testing.T) {
	rep := fixtureReport(map[string]float64{"gcc": 3.5, "gzip": 4.25})
	rep.StageSeconds = map[string]float64{"fetch": 1.5, "backend": 3}

	var buf bytes.Buffer
	if err := EncodeReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", got.SchemaVersion, SchemaVersion)
	}
	if got.Tool != "pfe-bench" || got.TotalSims != 2 {
		t.Errorf("Tool/TotalSims = %q/%d, want pfe-bench/2", got.Tool, got.TotalSims)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].ID != "fig8" || len(got.Experiments[0].Rows) != 2 {
		t.Fatalf("experiments did not round-trip: %+v", got.Experiments)
	}
	// Finalize sorts rows by bench: gcc before gzip.
	rows := got.Experiments[0].Rows
	if rows[0].Bench != "gcc" || rows[0].IPC != 3.5 || rows[1].Bench != "gzip" || rows[1].IPC != 4.25 {
		t.Errorf("rows did not round-trip sorted: %+v", rows)
	}
	if got.StageSeconds["backend"] != 3 {
		t.Errorf("StageSeconds did not round-trip: %v", got.StageSeconds)
	}
	if got.Provenance.GoVersion == "" || got.Provenance.GitSHA == "" {
		t.Errorf("provenance not stamped: %+v", got.Provenance)
	}
}

func TestDecodeReportRejectsSchemaMismatch(t *testing.T) {
	rep := fixtureReport(map[string]float64{"gcc": 3.5})
	rep.SchemaVersion = SchemaVersion + 1
	var buf bytes.Buffer
	if err := EncodeReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport(&buf); err == nil {
		t.Fatal("decoding a future schema version should fail")
	} else if !strings.Contains(err.Error(), "schema version") {
		t.Errorf("error should name the schema version: %v", err)
	}
}
