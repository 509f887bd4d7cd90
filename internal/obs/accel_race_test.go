package obs_test

// Accelerated-mode scrape test: a sampled simulation feeds the pfe_sample_*
// counters, next to a full one, while clients hammer /metrics and /status.
// Under -race this checks the whole accelerated telemetry path for data
// races; the final scrape asserts the sampling metric families carry real
// values.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	pfe "github.com/parallel-frontend/pfe"
	"github.com/parallel-frontend/pfe/internal/obs"
)

func TestLiveScrapeDuringAcceleratedRuns(t *testing.T) {
	reg := obs.NewRegistry()
	sc := obs.NewSimCounters(reg)
	tr := obs.NewTracker(reg)
	tr.SetWorkers(2)
	srv := httptest.NewServer(obs.NewMux(reg, tr, nil))
	defer srv.Close()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/status"} {
					resp, err := http.Get(srv.URL + path)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}

	tr.StartExperiment("accel", "accelerated smoke")
	tr.AddPlanned("accel", 2)
	var sims sync.WaitGroup
	run := func(name string, opts pfe.RunOptions) {
		defer sims.Done()
		start := time.Now()
		r, err := pfe.Run("gcc", pfe.Preset(pfe.PR2x8w), opts)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		tr.SimDone("accel", r.IPC, time.Since(start))
	}
	sampleSpec := pfe.DefaultSampleSpec()
	sims.Add(2)
	go run("sample", pfe.RunOptions{
		WarmupInsts: 5_000, MeasureInsts: 60_000, Obs: sc, Sample: &sampleSpec,
	})
	go run("full", pfe.RunOptions{
		WarmupInsts: 5_000, MeasureInsts: 60_000, Obs: sc,
	})
	sims.Wait()
	tr.FinishExperiment("accel")
	close(stop)
	scrapers.Wait()

	body := scrape(t, srv.URL+"/metrics")
	for _, want := range []string{
		"pfe_sample_windows_total ",
		"pfe_sample_gap_instructions_total ",
		"pfe_sample_fallback_steps_total ",
		"pfe_sample_ci_halfwidth_bucket",
		`pfe_stage_seconds_total{stage="warm"}`,
		`pfe_stage_seconds_total{stage="fetch_oracle"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if sc.SampleWindows.Value() == 0 {
		t.Error("no sampled windows counted")
	}
	if sc.SampleGapInsts.Value() == 0 {
		t.Error("no fast-forwarded gap instructions counted")
	}
	if warm := sc.Prof.StageSeconds(obs.StageWarm); warm <= 0 {
		t.Errorf("no warm stage time attributed to the sampled run: %v", warm)
	}

	var st obs.Status
	if err := json.Unmarshal([]byte(scrape(t, srv.URL+"/status")), &st); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if len(st.Experiments) != 1 || st.Experiments[0].CompletedSims != 2 {
		t.Errorf("/status = %+v, want one experiment with 2 sims", st.Experiments)
	}
	if st.Experiments[0].ColdSimSeconds <= 0 {
		t.Errorf("cold-sim EMA not tracked: %+v", st.Experiments[0])
	}
}
