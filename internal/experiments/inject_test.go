package experiments

import (
	"strings"
	"testing"

	pfe "github.com/parallel-frontend/pfe"
)

// TestParseInject pins the -inject grammar, in particular that unknown cell
// modes are rejected instead of silently skipping the drill they were meant
// to run.
func TestParseInject(t *testing.T) {
	cells, err := ParseInject("gzip/W16=panic, mcf/b=error,gcc/c=stall")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"gzip/W16": "panic", "mcf/b": "error", "gcc/c": "stall"}
	if len(cells) != len(want) {
		t.Fatalf("cells = %v, want %v", cells, want)
	}
	for k, v := range want {
		if cells[k] != v {
			t.Errorf("cells[%q] = %q, want %q", k, cells[k], v)
		}
	}

	bad := []string{
		"gzip/W16=frobnicate", // unknown cell mode
		"gzip/a=kill:3",       // the fabric worker modes are gone
		"twolf/d=hold",
		"net/report=dup:2", // so are the network chaos rules
		"gzipW16=panic",    // no bench/key separator
		"",                 // nothing parsed
		"gzip/W16",         // no mode at all
	}
	for _, in := range bad {
		if _, err := ParseInject(in); err == nil {
			t.Errorf("ParseInject(%q) accepted, want an error", in)
		}
	}
}

// TestInProcessInjectRejectsUnknownAndKill pins the in-process side of the
// same contract: a mode safeRun does not implement — the retired kill and
// hold worker modes included — fails the cell loudly instead of silently
// running it clean.
func TestInProcessInjectRejectsUnknownAndKill(t *testing.T) {
	log := &FailureLog{}
	o := Options{
		Warmup: 1000, Measure: 2000, Workers: 1,
		RetryBackoff: -1, FailBudget: 3,
		Failures: log, ExperimentID: "inj3",
		Inject: map[string]string{
			"gzip/a": "kill",
			"mcf/b":  "frobnicate",
			"gcc/c":  "hold",
		},
	}
	cells := []cell{
		{bench: "gzip", machine: pfe.Preset(pfe.W16), key: "a"},
		{bench: "mcf", machine: pfe.Preset(pfe.W16), key: "b"},
		{bench: "gcc", machine: pfe.Preset(pfe.W16), key: "c"},
	}
	if _, err := runCells(o, cells); err != nil {
		t.Fatal(err)
	}
	fails := log.All()
	if len(fails) != 3 {
		t.Fatalf("%d failures, want 3", len(fails))
	}
	for _, f := range fails {
		if !strings.Contains(f.Error, "unknown inject mode") {
			t.Errorf("cell %s: error = %q, want an unknown inject mode", f.Key, f.Error)
		}
	}
}
