package experiments

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/fabric"
	"github.com/parallel-frontend/pfe/internal/journal"
	"github.com/parallel-frontend/pfe/internal/program"
)

// startTestFleet wires o onto a coordinator with n loopback workers whose
// options are round-tripped through the wire config — exactly what a remote
// `pfe-bench -worker` would compute. skew mutates the worker-side options
// after the round trip (nil for a faithful fleet).
func startTestFleet(t *testing.T, o *Options, n int, fopts fabric.Options, skew func(*Options)) (*fabric.Coordinator, *fabric.LocalFleet) {
	t.Helper()
	cfg, err := o.FabricConfigJSON()
	if err != nil {
		t.Fatal(err)
	}
	fopts.Config = cfg
	coord := fabric.NewCoordinator(fopts)
	var fc FabricConfig
	if err := json.Unmarshal(cfg, &fc); err != nil {
		t.Fatal(err)
	}
	wopts := fc.ApplyTo(Options{DumpDir: t.TempDir()})
	if skew != nil {
		skew(&wopts)
	}
	runner := NewFabricRunner(wopts)
	fleet := fabric.StartLocal(coord, n, nil, func(id, baseURL string, client *http.Client) *fabric.Worker {
		return &fabric.Worker{ID: id, BaseURL: baseURL, Client: client,
			Run: runner.Run, Poll: 2 * time.Millisecond}
	})
	o.Fabric = &Fabric{C: coord}
	return coord, fleet
}

// journalResults decodes every cell record of a journal, keyed by
// (exp, bench, key), keeping the record the resume machinery would keep.
func journalResults(t *testing.T, path string) map[[3]string]cellRecord {
	t.Helper()
	out := map[[3]string]cellRecord{}
	epochs := map[[3]string]int64{}
	_, _, err := journal.Scan(path, func(payload []byte) error {
		var rec cellRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		k := [3]string{rec.Exp, rec.Bench, rec.Key}
		if cur, seen := epochs[k]; seen && rec.Epoch < cur {
			return nil
		}
		epochs[k] = rec.Epoch
		out[k] = rec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFabricLocalEquivalence is the distributed determinism gate at the
// package level: the same figure sweep run in-process and through a loopback
// worker fleet must render identically and journal bit-identical results
// (the journal's JSON floats round-trip float64 exactly, so byte equality of
// the result payloads is bit equality of every metric).
func TestFabricLocalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	dir := t.TempDir()
	base := Options{Warmup: 2000, Measure: 5000,
		Benchmarks: []string{"gzip", "mcf"}, ExperimentID: "fig4"}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	runWith := func(o Options, jpath string) string {
		w, err := journal.Create(jpath)
		if err != nil {
			t.Fatal(err)
		}
		o.Journal = w
		res, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return res.String()
	}

	singleJ := filepath.Join(dir, "single.wal")
	single := runWith(base, singleJ)

	fab := base
	coord, fleet := startTestFleet(t, &fab, 3, fabric.Options{LeaseTTL: 2 * time.Second}, nil)
	fabricJ := filepath.Join(dir, "fabric.wal")
	distributed := runWith(fab, fabricJ)
	coord.Shutdown()
	if err := fleet.Close(); err != nil {
		t.Fatalf("fleet close: %v", err)
	}

	if single != distributed {
		t.Errorf("rendered output differs between in-process and fabric runs:\n--- single\n%s\n--- fabric\n%s", single, distributed)
	}
	sr, fr := journalResults(t, singleJ), journalResults(t, fabricJ)
	if len(sr) == 0 || len(sr) != len(fr) {
		t.Fatalf("journals hold %d vs %d cells; want identical non-empty sets", len(sr), len(fr))
	}
	for k, srec := range sr {
		frec, ok := fr[k]
		if !ok {
			t.Fatalf("fabric journal missing cell %v", k)
		}
		sb, _ := json.Marshal(srec.Result)
		fb, _ := json.Marshal(frec.Result)
		if string(sb) != string(fb) {
			t.Errorf("cell %v result not bit-identical:\nsingle: %s\nfabric: %s", k, sb, fb)
		}
		if srec.Hash != frec.Hash {
			t.Errorf("cell %v config hash skewed across processes: %s vs %s", k, srec.Hash, frec.Hash)
		}
	}
	if st := coord.Stats(); st.Completed != int64(len(sr)) || st.Failed != 0 {
		t.Errorf("coordinator stats = %+v, want %d clean completions", st, len(sr))
	}
}

// TestFabricChaosKillBitIdentical is the chaos acceptance gate: a worker
// killed mid-cell (kill injection — it abandons the lease without reporting)
// forces recovery through lease expiry, and the sweep's results remain
// bit-identical to an undisturbed in-process run.
func TestFabricChaosKillBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	dir := t.TempDir()
	base := Options{Warmup: 1000, Measure: 3000,
		Benchmarks: []string{"gzip"}, ExperimentID: "fig4"}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	cleanJ := filepath.Join(dir, "clean.wal")
	w, err := journal.Create(cleanJ)
	if err != nil {
		t.Fatal(err)
	}
	clean := base
	clean.Journal = w
	cleanRes, err := e.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	fab := base
	fab.Inject = map[string]string{"gzip/W16": "kill"}
	fab.Failures = &FailureLog{}
	coord, fleet := startTestFleet(t, &fab, 2,
		fabric.Options{LeaseTTL: 100 * time.Millisecond, MaxRetries: 2, RetryBackoff: -1}, nil)
	w2, err := journal.Create(filepath.Join(dir, "chaos.wal"))
	if err != nil {
		t.Fatal(err)
	}
	fab.Journal = w2
	chaosRes, err := e.Run(fab)
	coord.Shutdown()
	if cerr := fleet.Close(); cerr != nil {
		t.Fatalf("fleet close: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()

	if cleanRes.String() != chaosRes.String() {
		t.Errorf("kill-recovered sweep differs from the undisturbed run:\n--- clean\n%s\n--- chaos\n%s",
			cleanRes, chaosRes)
	}
	cr, xr := journalResults(t, cleanJ), journalResults(t, filepath.Join(dir, "chaos.wal"))
	for k, crec := range cr {
		cb, _ := json.Marshal(crec.Result)
		xb, _ := json.Marshal(xr[k].Result)
		if string(cb) != string(xb) {
			t.Errorf("cell %v not bit-identical after kill recovery:\nclean: %s\nchaos: %s", k, cb, xb)
		}
	}
	st := coord.Stats()
	if st.Expiries < 1 || st.Requeues < 1 {
		t.Errorf("stats = %+v: the kill never exercised lease expiry", st)
	}
	if st.Failed != 0 || fab.Failures.Len() != 0 {
		t.Errorf("kill drill produced terminal failures: stats %+v, %d logged", st, fab.Failures.Len())
	}
	// The recovered cell's journal record carries the re-issued epoch.
	killed := xr[[3]string{"fig4", "gzip", "W16"}]
	if killed.Epoch < 2 {
		t.Errorf("recovered cell journaled under epoch %d, want >= 2 (the re-issued lease)", killed.Epoch)
	}
}

// TestFabricConfigSkewRefused pins fault-domain isolation: a worker whose
// budgets disagree with the coordinator computes different config hashes and
// must refuse its leases rather than contribute wrong rows — surfacing as a
// config-skew failure, not silent corruption.
func TestFabricConfigSkewRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := Options{Warmup: 1000, Measure: 2000, Benchmarks: []string{"gzip"},
		ExperimentID: "fig4", Failures: &FailureLog{}}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	coord, fleet := startTestFleet(t, &o, 1,
		fabric.Options{LeaseTTL: time.Second, MaxRetries: 0, RetryBackoff: -1},
		func(w *Options) { w.Measure = 2001 }) // skewed binary stand-in
	_, err = e.Run(o)
	coord.Shutdown()
	if cerr := fleet.Close(); cerr != nil {
		t.Fatalf("fleet close: %v", cerr)
	}
	if err == nil || !strings.Contains(err.Error(), "config hash skew") {
		t.Fatalf("skewed fleet returned %v, want a config-hash-skew budget error", err)
	}
	if st := coord.Stats(); st.Completed != 0 || st.Failed == 0 {
		t.Errorf("stats = %+v: a skewed worker must complete nothing", st)
	}
}

// TestEnumerateCellsDeterministic pins the addressing contract that lets a
// lease travel as (exp, batch, index): two independent enumerations of the
// same sweep produce identical grids with identical config hashes.
func TestEnumerateCellsDeterministic(t *testing.T) {
	o := Options{Warmup: 2000, Measure: 5000, Benchmarks: []string{"gzip", "mcf"}}
	b1, err := enumerateCells("fig4", o)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := enumerateCells("fig4", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) == 0 || len(b1[0]) == 0 {
		t.Fatal("enumeration produced no cells")
	}
	if len(b1) != len(b2) {
		t.Fatalf("batch counts differ: %d vs %d", len(b1), len(b2))
	}
	ro := o.runOpts()
	for bi := range b1 {
		if len(b1[bi]) != len(b2[bi]) {
			t.Fatalf("batch %d sizes differ: %d vs %d", bi, len(b1[bi]), len(b2[bi]))
		}
		for i := range b1[bi] {
			c1, c2 := &b1[bi][i], &b2[bi][i]
			if c1.bench != c2.bench || c1.key != c2.key {
				t.Errorf("cell [%d][%d] identity differs: %s/%s vs %s/%s",
					bi, i, c1.bench, c1.key, c2.bench, c2.key)
			}
			if cellHash(c1, ro) != cellHash(c2, ro) {
				t.Errorf("cell [%d][%d] %s/%s hash differs across enumerations", bi, i, c1.bench, c1.key)
			}
		}
	}
}

// TestFabricRunnerRefusesForeignCells pins the remaining fault-domain
// checks: leases addressing cells that do not exist, or whose identity
// disagrees with the worker's grid, are refused with typed errors.
func TestFabricRunnerRefusesForeignCells(t *testing.T) {
	o := Options{Warmup: 2000, Measure: 5000, Benchmarks: []string{"gzip"}}
	f := NewFabricRunner(o)
	ctx := context.Background()

	_, _, cellErr, _ := f.Run(ctx, fabric.Lease{Cell: fabric.CellRef{
		Exp: "fig4", Batch: 99, Index: 0, Bench: "gzip", Key: "W16"}})
	if cellErr == nil || cellErr.Kind != "no-such-cell" {
		t.Errorf("out-of-range batch: %+v, want a no-such-cell refusal", cellErr)
	}

	_, _, cellErr, _ = f.Run(ctx, fabric.Lease{Cell: fabric.CellRef{
		Exp: "fig4", Batch: 0, Index: 0, Bench: "mcf", Key: "W16"}})
	if cellErr == nil || cellErr.Kind != "cell-mismatch" {
		t.Errorf("bench mismatch: %+v, want a cell-mismatch refusal", cellErr)
	}

	_, _, cellErr, _ = f.Run(ctx, fabric.Lease{Cell: fabric.CellRef{
		Exp: "nope", Batch: 0, Index: 0}})
	if cellErr == nil || cellErr.Kind != "enumerate" {
		t.Errorf("unknown experiment: %+v, want an enumerate refusal", cellErr)
	}
}

// TestParseInject pins the -inject grammar, in particular that unknown cell
// modes and chaos kinds are rejected instead of silently skipping the drill
// they were meant to run.
func TestParseInject(t *testing.T) {
	cells, rules, err := ParseInject("gzip/W16=panic, mcf/b=error,gcc/c=stall,gzip/a=kill:3,twolf/d=hold,net/report=dup:2,net/heartbeat=blackhole")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"gzip/W16": "panic", "mcf/b": "error", "gcc/c": "stall", "gzip/a": "kill:3", "twolf/d": "hold"}
	if len(cells) != len(want) {
		t.Fatalf("cells = %v, want %v", cells, want)
	}
	for k, v := range want {
		if cells[k] != v {
			t.Errorf("cells[%q] = %q, want %q", k, cells[k], v)
		}
	}
	if len(rules) != 2 || rules[0].Kind != "dup" || rules[0].Times != 2 || rules[1].Endpoint != "heartbeat" {
		t.Errorf("rules = %+v, want dup:2 on report and blackhole on heartbeat", rules)
	}

	bad := []string{
		"gzip/W16=frobnicate", // unknown cell mode
		"gzip/a=kill:0",       // kill budget must be >= 1
		"gzipW16=panic",       // no bench/key separator
		"net/bogus=drop",      // unknown endpoint
		"net/report=smash",    // unknown chaos kind
		"",                    // nothing parsed
		"gzip/W16",            // no mode at all
	}
	for _, in := range bad {
		if _, _, err := ParseInject(in); err == nil {
			t.Errorf("ParseInject(%q) accepted, want an error", in)
		}
	}
}

// TestInProcessInjectRejectsUnknownAndKill pins the in-process side of the
// same satellite: a mode safeRun does not implement fails the cell loudly
// (kill and hold with a pointer at the fabric workers, anything else as
// unknown) instead of silently running it clean.
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
	byKey := map[string]string{}
	for _, f := range log.All() {
		byKey[f.Key] = f.Error
	}
	if msg := byKey["a"]; !strings.Contains(msg, "fabric workers") {
		t.Errorf("in-process kill inject error = %q, want a pointer at -local/-worker", msg)
	}
	if msg := byKey["b"]; !strings.Contains(msg, "unknown inject mode") {
		t.Errorf("unknown inject mode error = %q", msg)
	}
	if msg := byKey["c"]; !strings.Contains(msg, "-worker processes") {
		t.Errorf("in-process hold inject error = %q, want a pointer at -worker", msg)
	}
}

// TestResumeFencedEpochLoses pins satellite replay semantics directly on the
// journal: when a cell appears twice under different lease epochs, the
// higher epoch wins regardless of append order, while equal epochs keep
// last-wins (the acknowledged-most-recently rule).
func TestResumeFencedEpochLoses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")
	w, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(epoch int64, ipc float64) cellRecord {
		return cellRecord{Exp: "e", Bench: "gzip", Key: "k", Hash: "h", Epoch: epoch,
			Result: cellResult{Bench: "gzip", Config: "W16", IPC: ipc}}
	}
	// The accepted epoch-2 result lands first; the fenced zombie's epoch-1
	// record is appended later (it raced the acceptance) and must lose.
	for _, r := range []cellRecord{rec(2, 2.5), rec(1, 1.5)} {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	res, err := LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells() != 1 || res.Records != 2 {
		t.Fatalf("resume index: %d cells from %d records, want 1 from 2", res.Cells(), res.Records)
	}
	r, ok := res.lookup("e", "gzip", "k", "h")
	if !ok || r.IPC != 2.5 {
		t.Fatalf("lookup = %+v (ok=%v), want the epoch-2 result (IPC 2.5)", r, ok)
	}

	// Same epoch twice: the later append wins (in-process duplicate rule,
	// unchanged by the epoch field).
	path2 := filepath.Join(t.TempDir(), "ties.wal")
	w2, err := journal.Create(path2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []cellRecord{rec(2, 2.5), rec(2, 3.5)} {
		if err := w2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()
	res2, err := LoadResume(path2)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := res2.lookup("e", "gzip", "k", "h"); !ok || r.IPC != 3.5 {
		t.Fatalf("tie lookup = %+v (ok=%v), want last-wins (IPC 3.5)", r, ok)
	}
}

// TestResumeFencedDuplicateBitIdentical runs the fenced-duplicate scenario
// end to end: a journal holding every cell of a real sweep plus a poisoned
// lower-epoch duplicate must resume to output identical to the original run
// — the zombie record is invisible.
func TestResumeFencedDuplicateBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	dir := t.TempDir()
	o := Options{Warmup: 1000, Measure: 2000, Benchmarks: []string{"gzip"}, ExperimentID: "fig4"}
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	j1 := filepath.Join(dir, "orig.wal")
	w, err := journal.Create(j1)
	if err != nil {
		t.Fatal(err)
	}
	run1 := o
	run1.Journal = w
	res1, err := e.Run(run1)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Rebuild the journal as a distributed run would have left it after a
	// fence race: every record under epoch 2, plus one poisoned epoch-1
	// duplicate appended last.
	var recs []cellRecord
	if _, _, err := journal.Scan(j1, func(p []byte) error {
		var rec cellRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("original run journaled nothing")
	}
	j2 := filepath.Join(dir, "raced.wal")
	w2, err := journal.Create(j2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		rec.Epoch = 2
		if err := w2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	zombie := recs[0]
	zombie.Epoch = 1
	zombie.Result.IPC = -99 // would be unmissable in the rendered output
	if err := w2.Append(zombie); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	res, err := LoadResume(j2)
	if err != nil {
		t.Fatal(err)
	}
	run2 := o
	run2.Resume = res
	res2, err := e.Run(run2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed.Load() != int64(len(recs)) || res.Mismatched.Load() != 0 {
		t.Errorf("replayed %d/%d cells (%d mismatched); the whole sweep must replay",
			res.Replayed.Load(), len(recs), res.Mismatched.Load())
	}
	if res1.String() != res2.String() {
		t.Errorf("resumed output differs — the fenced duplicate leaked in:\n--- original\n%s\n--- resumed\n%s",
			res1, res2)
	}
}

// TestPrefetchWarmsRunArtifacts pins the compute/network overlap contract:
// Prefetch on a queued lease must populate exactly the cache keys the
// eventual Run asks for (program image, and the tape at Run's own budget), so
// the run opens both as memory hits. Skewed leases must warm nothing.
func TestPrefetchWarmsRunArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	o := Options{Warmup: 2000, Measure: 5000, Benchmarks: []string{"gzip"},
		ExperimentID: "fig4", Artifacts: artifact.New(0)}
	batches, err := enumerateCells("fig4", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 || len(batches[0]) == 0 {
		t.Fatal("fig4 enumerated no cells")
	}
	c := &batches[0][0]
	ro := o.runOpts()
	lease := fabric.Lease{Cell: fabric.CellRef{Exp: "fig4", Batch: 0, Index: 0,
		Bench: c.bench, Key: c.key, Hash: cellHash(c, ro)}}

	runner := NewFabricRunner(o)
	runner.Prefetch(lease)

	spec, err := program.SpecByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	if _, info, err := o.Artifacts.ProgramInfo(spec); err != nil || info.Source != "mem-hit" {
		t.Errorf("post-prefetch program lookup: %+v, %v — want a memory hit", info, err)
	}
	budget := uint64(ro.WarmupInsts+ro.MeasureInsts) + artifact.TapeSlack
	if _, info, err := o.Artifacts.TapeInfo(spec, budget); err != nil || info.Source != "mem-hit" {
		t.Errorf("post-prefetch tape lookup at Run's budget: %+v, %v — want a memory hit", info, err)
	}

	// A lease whose config hash skewed (a stale or foreign coordinator) must
	// warm nothing: prefetching under skew would mask the fault Run refuses.
	skewed := Options{Warmup: 2000, Measure: 5000, Benchmarks: []string{"gzip"},
		ExperimentID: "fig4", Artifacts: artifact.New(0)}
	bad := lease
	bad.Cell.Hash = "skewed"
	NewFabricRunner(skewed).Prefetch(bad)
	if s := skewed.Artifacts.Stats(); s.ProgramMisses+s.TapeMisses != 0 {
		t.Errorf("skewed lease warmed the cache: %+v", s)
	}

	// A memoized cell skips artifact warming entirely: Run will replay the
	// stored result without touching program or tape.
	memo := Options{Warmup: 2000, Measure: 5000, Benchmarks: []string{"gzip"},
		ExperimentID: "fig4", Artifacts: artifact.New(0)}
	memo.Artifacts.PutResult(lease.Cell.Hash, "done", 8)
	NewFabricRunner(memo).Prefetch(lease)
	if s := memo.Artifacts.Stats(); s.ProgramMisses+s.TapeMisses != 0 {
		t.Errorf("memoized lease warmed the cache: %+v", s)
	}
}
