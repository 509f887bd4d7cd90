package main_test

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/obs"
)

// TestFabricLocalBitIdentical is the distributed-determinism acceptance
// test at the CLI level: `-local N` routes every cell through the lease
// coordinator and a loopback worker fleet, and the report's result rows must
// be byte-identical to the single-process run's — with the per-worker lease
// accounting present in the scheduler block.
func TestFabricLocalBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()

	singleJSON := filepath.Join(dir, "single.json")
	cmd := exec.Command(pb, benchArgs("-json", singleJSON)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("single-process run: %v\n%s", err, out)
	}

	// -no-artifact-cache keeps memoized results from short-circuiting the
	// lease path: every cell must genuinely travel through the fabric.
	localJSON := filepath.Join(dir, "local.json")
	var stderr bytes.Buffer
	local := exec.Command(pb, benchArgs("-local", "3", "-no-artifact-cache", "-json", localJSON)...)
	local.Stderr = &stderr
	if err := local.Run(); err != nil {
		t.Fatalf("-local run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fabric:") {
		t.Errorf("-local run printed no fabric lease summary:\n%s", stderr.String())
	}

	single, distributed := rowsOf(t, singleJSON), rowsOf(t, localJSON)
	if single != distributed {
		t.Errorf("-local rows differ from single-process rows:\nsingle: %.400s\nlocal:  %.400s", single, distributed)
	}

	rep, err := obs.ReadReportFile(localJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Experiments {
		if e.Scheduler == nil || len(e.Scheduler.Fabric) == 0 {
			t.Errorf("%s: report has no per-worker fabric accounting", e.ID)
			continue
		}
		var completed int
		for _, w := range e.Scheduler.Fabric {
			completed += w.Completed
			if w.Leases < w.Completed {
				t.Errorf("%s: worker %s completed %d cells on %d leases", e.ID, w.ID, w.Completed, w.Leases)
			}
		}
		if completed != len(e.Rows) {
			t.Errorf("%s: fabric workers completed %d cells, report has %d rows", e.ID, completed, len(e.Rows))
		}
	}
}

// TestFabricKillWorkerRecoversBitIdentical is the kill-a-worker-mid-sweep
// acceptance test with real processes: a coordinator leases cells to two
// worker processes over TCP, one worker is SIGKILLed while it holds a lease,
// and the sweep must still complete with rows byte-identical to an
// undisturbed single-process run (the lease TTL re-queues the orphaned cell
// onto the survivor).
func TestFabricKillWorkerRecoversBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()

	refJSON := filepath.Join(dir, "ref.json")
	cmd := exec.Command(pb, benchArgs("-json", refJSON)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	// Coordinator on an ephemeral port, short lease TTL so recovery from the
	// kill fits the test budget.
	outJSON := filepath.Join(dir, "fabric.json")
	coord := exec.Command(pb, benchArgs(
		"-coordinator", "127.0.0.1:0", "-lease-ttl", "500ms",
		"-no-artifact-cache", "-json", outJSON)...)
	coordErr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	var coordLog bytes.Buffer
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(coordErr)
		re := regexp.MustCompile(`listening on (http://\S+)`)
		for sc.Scan() {
			line := sc.Text()
			coordLog.WriteString(line + "\n")
			if m := re.FindStringSubmatch(line); m != nil {
				select {
				case urlCh <- m[1]:
				default:
				}
			}
		}
	}()
	var baseURL string
	select {
	case baseURL = <-urlCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("coordinator never announced its listener:\n%s", coordLog.String())
	}

	// Two workers. The victim holds every cell it leases (-inject hold:
	// the cell blocks, heartbeats go on) and announces the hold on stderr;
	// it is SIGKILLed as soon as it does, so the kill always lands while it
	// holds a lease, however fast the cell would have run.
	var holds []string
	for _, b := range []string{"gzip", "mcf", "gcc", "twolf"} { // benchArgs' grid
		for _, fe := range []pfe.FrontEnd{pfe.W16, pfe.TC, pfe.TC2x, pfe.PF2x8w, pfe.PF4x4w} { // fig4's
			holds = append(holds, b+"/"+string(fe)+"=hold")
		}
	}
	victim := exec.Command(pb, "-worker", baseURL, "-worker-id", "victim", "-no-artifact-cache",
		"-inject", strings.Join(holds, ","))
	victimErr, err := victim.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Process.Kill()
	held := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(victimErr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "injected hold") {
				close(held)
				return
			}
		}
	}()

	survivor := exec.Command(pb, "-worker", baseURL, "-worker-id", "survivor", "-no-artifact-cache")
	var survivorLog bytes.Buffer
	survivor.Stderr = &survivorLog
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	defer survivor.Process.Kill()

	select {
	case <-held:
		if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("killing victim: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("victim worker never held a lease")
	}
	victim.Wait()

	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordLog.String())
	}
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor worker: %v\n%s", err, survivorLog.String())
	}

	ref, fab := rowsOf(t, refJSON), rowsOf(t, outJSON)
	if ref != fab {
		t.Errorf("rows after worker kill differ from undisturbed run:\nref:    %.400s\nfabric: %.400s", ref, fab)
	}
	rep, err := obs.ReadReportFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial || len(rep.Failures) != 0 {
		t.Errorf("report partial=%v failures=%d, want a clean recovered sweep", rep.Partial, len(rep.Failures))
	}
	// The kill must be visible in the lease accounting: at least one requeue
	// in the end-of-run fabric summary.
	re := regexp.MustCompile(`(\d+) requeued`)
	m := re.FindStringSubmatch(coordLog.String())
	if m == nil {
		t.Fatalf("coordinator printed no fabric summary:\n%s", coordLog.String())
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Errorf("fabric summary shows %d requeues, want >= 1 (the killed worker's lease):\n%s", n, coordLog.String())
	}
}

// TestFabricFlagValidation pins the CLI contract around the fabric flags:
// unknown -inject modes, chaos rules without a fabric, and contradictory
// role flags are usage errors (exit 2), not silently ignored.
func TestFabricFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown inject mode", benchArgs("-inject", "gzip/W16=frobnicate"), "mode must be"},
		{"unknown chaos kind", benchArgs("-local", "2", "-inject", "net/report=smash"), "kind must be"},
		{"chaos without fabric", benchArgs("-inject", "net/report=drop"), "need -local"},
		{"worker and coordinator", []string{"-worker", "http://localhost:1", "-local", "2"}, "exclusive"},
		{"heartbeat over ttl", benchArgs("-local", "2", "-lease-ttl", "1s", "-heartbeat", "2s"), "must be shorter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(pb, tc.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("exit = %v, want usage error (2); stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not explain the rejection (want %q)", stderr.String(), tc.want)
			}
		})
	}
}

// TestFabricLocalChaosSweepSurvives drives the network chaos layer through
// the CLI: a -local sweep with dropped reports, blackholed heartbeats and a
// duplicated report must still produce rows byte-identical to a clean run.
func TestFabricLocalChaosSweepSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	pb := bin(t)
	dir := t.TempDir()

	refJSON := filepath.Join(dir, "ref.json")
	cmd := exec.Command(pb, benchArgs("-json", refJSON)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	chaosJSON := filepath.Join(dir, "chaos.json")
	var stderr bytes.Buffer
	// Every lease heartbeats at least once (the immediate beat on grant), so
	// the two heartbeat blackholes below always find requests to fault even
	// though uncached fig4 cells only take milliseconds.
	chaos := exec.Command(pb, benchArgs(
		"-local", "2", "-lease-ttl", "500ms", "-no-artifact-cache",
		"-inject", "net/report=drop:2,net/heartbeat=blackhole:2,net/report=dup",
		"-json", chaosJSON)...)
	chaos.Stderr = &stderr
	if err := chaos.Run(); err != nil {
		t.Fatalf("chaos run: %v\n%s", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "never fired") {
		t.Errorf("chaos schedule was not fully exercised:\n%s", stderr.String())
	}
	if ref, got := rowsOf(t, refJSON), rowsOf(t, chaosJSON); ref != got {
		t.Errorf("rows under network chaos differ from clean run:\nref:   %.400s\nchaos: %.400s", ref, got)
	}
}
