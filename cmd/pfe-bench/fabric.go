package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/parallel-frontend/pfe/internal/artifact"
	"github.com/parallel-frontend/pfe/internal/artifact/store"
	"github.com/parallel-frontend/pfe/internal/experiments"
	"github.com/parallel-frontend/pfe/internal/fabric"
	"github.com/parallel-frontend/pfe/internal/obs"
)

// fabricFlags are the distributed-sweep flags: a process is either a worker
// (-worker URL), a coordinator leasing cells to external workers
// (-coordinator addr), or a coordinator with its own in-process loopback
// fleet (-local N — the distributed determinism mode).
type fabricFlags struct {
	Worker      string
	WorkerID    string
	Coordinator string
	Local       int
	LeaseTTL    time.Duration
	Heartbeat   time.Duration
	LeaseBatch  int
	Prefetch    bool
	NoBlobFetch bool
}

func (f fabricFlags) active() bool { return f.Local > 0 || f.Coordinator != "" }

func (f fabricFlags) validate() error {
	switch {
	case f.Worker != "" && f.active():
		return fmt.Errorf("-worker is exclusive with -coordinator/-local: a process is either a worker or a coordinator")
	case f.Local > 0 && f.Coordinator != "":
		return fmt.Errorf("-local and -coordinator are mutually exclusive: -local runs its own loopback fleet")
	case f.Local < 0:
		return fmt.Errorf("-local %d: want a non-negative worker count", f.Local)
	case f.LeaseTTL <= 0:
		return fmt.Errorf("-lease-ttl %v: want a positive duration", f.LeaseTTL)
	case f.Heartbeat < 0:
		return fmt.Errorf("-heartbeat %v: want a non-negative duration (0 = lease-ttl/3)", f.Heartbeat)
	case f.Heartbeat > 0 && f.Heartbeat >= f.LeaseTTL:
		return fmt.Errorf("-heartbeat %v must be shorter than -lease-ttl %v (a lease must outlive its heartbeat)", f.Heartbeat, f.LeaseTTL)
	case f.LeaseBatch < 1:
		return fmt.Errorf("-lease-batch %d: want a positive lease count per round trip", f.LeaseBatch)
	}
	return nil
}

// fabricSession is the coordinator side of a distributed sweep: the lease
// coordinator, and either an in-process loopback fleet (-local) or a real
// HTTP listener (-coordinator).
type fabricSession struct {
	coord    *fabric.Coordinator
	fleet    *fabric.LocalFleet
	srv      *http.Server
	chaos    *fabric.Chaos
	leaseTTL time.Duration
	workers  int                // -local fleet size (0 for -coordinator)
	remotes  []*artifact.Remote // the -local workers' artifact-plane clients
}

// startFabric wires a coordinator into the sweep options: cells now resolve
// through the lease table instead of the in-process pool. Telemetry gains
// the pfe_fabric_* counters and the /status worker roster.
//
// With an artifact cache active (and absent -no-blob-fetch), the coordinator
// also serves the artifact plane: blob GET/PUT over diskStore (or a bounded
// in-memory relay when the store is off), so workers fetch program images
// and oracle tapes by hash instead of rebuilding them.
func startFabric(fab fabricFlags, opts *experiments.Options, maxRetries int, dumpDir string,
	diskStore *store.Store, reg *obs.Registry, tracker *obs.Tracker, rules []fabric.Rule) (*fabricSession, error) {
	cfg, err := opts.FabricConfigJSON()
	if err != nil {
		return nil, err
	}
	var blobs fabric.BlobSource
	if opts.Artifacts != nil && !fab.NoBlobFetch {
		blobs = artifact.NewBlobRelay(diskStore, 0)
	}
	coord := fabric.NewCoordinator(fabric.Options{
		LeaseTTL:     fab.LeaseTTL,
		Heartbeat:    fab.Heartbeat,
		MaxRetries:   maxRetries,
		RetryBackoff: opts.RetryBackoff,
		Config:       cfg,
		Blobs:        blobs,
		// Warm packs take several seconds of replay to build at paper
		// warmups; the collapse window must outlast a build or waiters
		// time out and duplicate the replay.
		BuildHoldoff: 2 * time.Minute,
	})
	coord.Register(reg)
	tracker.SetFabricRoster(func() []obs.FabricRosterEntry {
		roster := coord.Roster()
		out := make([]obs.FabricRosterEntry, len(roster))
		for i, w := range roster {
			out[i] = obs.FabricRosterEntry{
				ID: w.ID, LastSeenSeconds: w.LastSeenSeconds, Busy: w.Busy,
				Leases: w.Leases, Completed: w.Completed,
				Requeued: w.Requeued, Fenced: w.Fenced,
			}
		}
		return out
	})
	opts.Fabric = &experiments.Fabric{C: coord}
	s := &fabricSession{coord: coord, leaseTTL: fab.LeaseTTL}

	if fab.Local > 0 {
		// Worker options round-trip through the wire config — exactly what a
		// remote worker would compute — over a base carrying only the
		// process-local pieces. Each loopback worker gets its OWN memory-only
		// artifact cache plus a Remote pointed at the coordinator's blob
		// endpoint: -local models the real deployment (workers share nothing
		// but the wire), so cold-fleet numbers and the once-per-worker wire
		// dedup are honest. -no-blob-fetch keeps the isolated caches but
		// removes the Remote — the PR 9 rebuild-everything baseline.
		var fc experiments.FabricConfig
		if err := json.Unmarshal(cfg, &fc); err != nil {
			return nil, fmt.Errorf("pfe-bench: fabric config round-trip: %w", err)
		}
		s.workers = fab.Local
		s.chaos = fabric.NewChaos(rules)
		s.fleet = fabric.StartLocal(coord, fab.Local, s.chaos, func(id, baseURL string, client *http.Client) *fabric.Worker {
			wopts := fc.ApplyTo(experiments.Options{DumpDir: dumpDir})
			if opts.Artifacts != nil {
				wopts.Artifacts = artifact.New(opts.Artifacts.Stats().MaxBytes)
				if !fab.NoBlobFetch {
					rem := &artifact.Remote{BaseURL: baseURL, Client: client, WaitBudget: 90 * time.Second}
					wopts.Artifacts.SetRemote(rem)
					s.remotes = append(s.remotes, rem)
				}
			}
			runner := experiments.NewFabricRunner(wopts)
			w := &fabric.Worker{
				ID: id, BaseURL: baseURL, Client: client,
				Run: runner.Run, Poll: 25 * time.Millisecond,
				MaxLeases: fab.LeaseBatch,
			}
			if fab.Prefetch {
				w.Prefetch = runner.Prefetch
			}
			return w
		})
		tracker.SetWorkers(fab.Local)
		return s, nil
	}

	ln, err := net.Listen("tcp", fab.Coordinator)
	if err != nil {
		return nil, fmt.Errorf("pfe-bench: fabric listener: %w", err)
	}
	s.srv = &http.Server{Handler: coord.Handler()}
	go s.srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "fabric: coordinator listening on http://%s (point `pfe-bench -worker` at it)\n", ln.Addr())
	return s, nil
}

// shutdown drains the fabric at the end of the sweep: leases answer 410 (the
// workers' exit signal), the loopback fleet is joined, the listener closes
// after a grace period for final polls, and the lease accounting is printed.
func (s *fabricSession) shutdown() error {
	s.coord.Shutdown()
	var err error
	if s.fleet != nil {
		err = s.fleet.Close()
	}
	if s.srv != nil {
		// Keep the listener up until every live worker has polled once more
		// and collected its 410 — tearing it down between a worker's last
		// report and its next poll would turn a clean drain into a spurious
		// coordinator-unreachable exit. Workers silent for a lease TTL
		// (killed, partitioned) are not waited for.
		if !s.coord.DrainGone(s.leaseTTL, 5*time.Second) {
			fmt.Fprintln(os.Stderr, "fabric: shutdown drain timed out; some workers never saw the exit signal")
		}
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		s.srv.Shutdown(sctx)
	}
	if s.chaos != nil {
		if n := s.chaos.Remaining(); n > 0 {
			fmt.Fprintf(os.Stderr, "chaos: %d scheduled network fault(s) never fired\n", n)
		}
	}
	st := s.coord.Stats()
	fmt.Fprintf(os.Stderr, "fabric: %d lease(s), %d completed, %d requeued (%d expiries), %d fenced, %d failed\n",
		st.Leases, st.Completed, st.Requeues, st.Expiries, st.Fenced, st.Failed)
	bs := s.coord.BlobStats()
	if bs.Serves+bs.ServeMisses+bs.Accepts+bs.DupAccepts > 0 {
		fmt.Fprintf(os.Stderr,
			"fabric blobs: %d served (%d distinct, %.1f MiB out), %d accepted (+%d dup, %.1f MiB in), %d misses, %d collapsed\n",
			bs.Serves, bs.UniqueServed, float64(bs.BytesOut)/(1<<20),
			bs.Accepts, bs.DupAccepts, float64(bs.BytesIn)/(1<<20), bs.ServeMisses, bs.Collapses)
	}
	if rs := s.remoteStats(); rs.Fetches+rs.Publishes+rs.Corrupt > 0 {
		fmt.Fprintf(os.Stderr,
			"fabric blobs: fleet fetched %d (%.1f MiB, %.2fs), published %d, %d corrupt transfer(s) rejected\n",
			rs.Fetches, float64(rs.BytesIn)/(1<<20), rs.FetchSeconds, rs.Publishes, rs.Corrupt)
	}
	return err
}

// remoteStats sums the -local fleet's worker-side artifact-plane counters.
func (s *fabricSession) remoteStats() artifact.RemoteStats {
	var sum artifact.RemoteStats
	for _, r := range s.remotes {
		rs := r.Stats()
		sum.Fetches += rs.Fetches
		sum.Misses += rs.Misses
		sum.Waits += rs.Waits
		sum.Corrupt += rs.Corrupt
		sum.Errors += rs.Errors
		sum.Publishes += rs.Publishes
		sum.BytesIn += rs.BytesIn
		sum.BytesOut += rs.BytesOut
		sum.FetchSeconds += rs.FetchSeconds
		sum.WaitSeconds += rs.WaitSeconds
	}
	return sum
}

// fabricReport assembles the report's fabric block: fleet size plus the
// artifact plane's transfer accounting (nil Blobs when the plane never
// moved a byte).
func (s *fabricSession) fabricReport() obs.FabricReport {
	workers := s.workers
	if workers == 0 {
		workers = len(s.coord.Roster())
	}
	fr := obs.FabricReport{Workers: workers}
	bs := s.coord.BlobStats()
	rs := s.remoteStats()
	if bs.Serves+bs.ServeMisses+bs.Accepts+bs.DupAccepts+rs.Fetches+rs.Publishes > 0 {
		fr.Blobs = &obs.FabricBlobsReport{
			Serves:       bs.Serves,
			ServeMisses:  bs.ServeMisses,
			Collapses:    bs.Collapses,
			UniqueServed: bs.UniqueServed,
			Accepts:      bs.Accepts,
			DupAccepts:   bs.DupAccepts,
			Rejects:      bs.Rejects,
			BytesOut:     bs.BytesOut,
			BytesIn:      bs.BytesIn,
			ServeSeconds: bs.ServeSeconds,

			WorkerFetches:         rs.Fetches,
			WorkerFetchBytes:      rs.BytesIn,
			WorkerCorruptRejected: rs.Corrupt,
			WorkerPublishes:       rs.Publishes,
			WorkerFetchSeconds:    rs.FetchSeconds,
			WorkerWaitSeconds:     rs.WaitSeconds,
		}
	}
	return fr
}

// runWorker is `pfe-bench -worker URL`: fetch the sweep configuration from
// the coordinator, then pull, run and report leases until it shuts down
// (exit 0), the coordinator becomes unreachable (exit 1), or a signal
// arrives (exit 130). The sweep shape comes from the coordinator; the
// worker's own flags contribute only process-local concerns (artifact
// cache/store, dump dir, network chaos rules, and -inject overrides — so a
// single worker of a fleet can be the designated chaos victim).
func runWorker(ctx context.Context, fab fabricFlags, base experiments.Options, rules []fabric.Rule) int {
	id := fab.WorkerID
	if id == "" {
		id = fabric.DefaultWorkerID()
	}
	w := &fabric.Worker{
		ID:      id,
		BaseURL: strings.TrimRight(fab.Worker, "/"),
		Client:  &http.Client{Transport: fabric.NewChaos(rules).Wrap(nil)},
		Log:     os.Stderr,
	}
	raw, err := w.FetchConfig(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return 130
		}
		fmt.Fprintln(os.Stderr, "pfe-bench:", err)
		return 1
	}
	var fc experiments.FabricConfig
	if err := json.Unmarshal(raw, &fc); err != nil {
		fmt.Fprintf(os.Stderr, "pfe-bench: decoding coordinator config: %v\n", err)
		return 1
	}
	localInject := base.Inject
	wopts := fc.ApplyTo(base)
	if len(localInject) > 0 {
		merged := map[string]string{}
		for k, v := range wopts.Inject {
			merged[k] = v
		}
		for k, v := range localInject {
			merged[k] = v
		}
		wopts.Inject = merged
	}
	// The artifact plane: a third cache tier behind this worker's local
	// store, fetching blobs by hash from the coordinator and publishing
	// local builds back so the rest of the fleet skips them.
	var rem *artifact.Remote
	if wopts.Artifacts != nil && !fab.NoBlobFetch {
		rem = &artifact.Remote{BaseURL: w.BaseURL, Client: w.Client, WaitBudget: 90 * time.Second}
		wopts.Artifacts.SetRemote(rem)
	}
	runner := experiments.NewFabricRunner(wopts)
	runner.OnKill = func() {
		// The kill drill for a real worker process is a real death: no
		// report, no more heartbeats, not even a goodbye.
		fmt.Fprintf(os.Stderr, "worker %s: injected kill, exiting\n", id)
		os.Exit(1)
	}
	runner.OnHold = func() {
		// The hold drill: keep the lease (heartbeats go on) and never
		// finish the cell; whoever injected it kills this process.
		fmt.Fprintf(os.Stderr, "worker %s: injected hold, blocking until killed\n", id)
		select {}
	}
	w.Run = runner.Run
	w.MaxLeases = fab.LeaseBatch
	if fab.Prefetch {
		w.Prefetch = runner.Prefetch
	}
	fmt.Fprintf(os.Stderr, "worker %s: serving %s\n", id, w.BaseURL)
	err = w.Loop(ctx)
	if rs := rem.Stats(); rs.Fetches+rs.Publishes+rs.Corrupt > 0 {
		fmt.Fprintf(os.Stderr,
			"worker %s: fetched %d blob(s) (%.1f MiB, %.2fs), published %d, %d corrupt transfer(s) rejected\n",
			id, rs.Fetches, float64(rs.BytesIn)/(1<<20), rs.FetchSeconds, rs.Publishes, rs.Corrupt)
	}
	if errors.Is(err, context.Canceled) {
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfe-bench:", err)
		return 1
	}
	return 0
}
