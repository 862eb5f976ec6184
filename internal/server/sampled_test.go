package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// Sampled runs need enough trace for several intervals at the 1000-
// access validation floor; still fast (a few ms per policy).
const sampledAccesses = 12000

func sampledReq(mix string) RunRequest {
	return RunRequest{
		Mix:            mix,
		Accesses:       sampledAccesses,
		Mode:           "sampled",
		SampleInterval: 1000,
		SampleClusters: 4,
	}
}

func TestRunSampledEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, body := post(t, ts.URL+"/v1/run", sampledReq("WL1"))
	if status != http.StatusOK {
		t.Fatalf("sampled run: %d %s", status, body)
	}
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if !res.Sampled || res.Sample == nil {
		t.Fatalf("sampled run missing sampled/sample fields: %s", body)
	}
	if res.Sample.Clusters <= 0 || res.Sample.IntervalsProfiled <= res.Sample.IntervalsDetailed {
		t.Errorf("implausible estimate: %+v", *res.Sample)
	}
	if res.Sample.WorkReduction <= 1 {
		t.Errorf("work reduction not > 1: %v", res.Sample.WorkReduction)
	}
	if res.Cycles == 0 || res.EPITotalNJ <= 0 || res.MPKI <= 0 {
		t.Errorf("implausible sampled metrics: %+v", res)
	}

	// An exact run of the same workload is a different cache cell and
	// carries no sampling fields.
	status, body = post(t, ts.URL+"/v1/run", RunRequest{Mix: "WL1", Accesses: sampledAccesses})
	if status != http.StatusOK {
		t.Fatalf("exact run: %d %s", status, body)
	}
	var exact RunResult
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatalf("decoding exact result: %v", err)
	}
	if exact.Sampled || exact.Sample != nil {
		t.Errorf("exact run carries sampling fields: %s", body)
	}
	if st := getStats(t, ts.URL); st.Computed != 2 {
		t.Errorf("sampled and exact runs should be distinct cache cells: computed=%d, want 2", st.Computed)
	}

	// A repeat of the sampled request is a recall, not a recompute, and
	// serializes identically.
	status, body2 := post(t, ts.URL+"/v1/run", sampledReq("WL1"))
	if status != http.StatusOK {
		t.Fatalf("sampled rerun: %d %s", status, body2)
	}
	var rerun RunResult
	if err := json.Unmarshal(body2, &rerun); err != nil {
		t.Fatalf("decoding rerun: %v", err)
	}
	if st := getStats(t, ts.URL); st.Computed != 2 || st.Recalled == 0 {
		t.Errorf("sampled rerun should recall: computed=%d recalled=%d", st.Computed, st.Recalled)
	}
}

func TestRunSampledValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name  string
		req   RunRequest
		field string
	}{
		{"unknown mode", RunRequest{Mix: "WL1", Mode: "approximate"}, ""},
		{"knobs without sampled mode", RunRequest{Mix: "WL1", SampleInterval: 2000}, ""},
		{"clusters without sampled mode", RunRequest{Mix: "WL1", SampleClusters: 4}, ""},
		{"interval below floor", RunRequest{Mix: "WL1", Mode: "sampled", SampleInterval: 500}, "SampleInterval"},
		{"cluster count out of range", RunRequest{Mix: "WL1", Mode: "sampled", SampleClusters: 300}, "SampleClusters"},
		{"warmup out of range", RunRequest{Mix: "WL1", Mode: "sampled", SampleWarmup: 65}, "SampleWarmup"},
		{"sampled threaded", RunRequest{Bench: "x264", Threads: 2, Mode: "sampled"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.URL+"/v1/run", tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("got %d %s, want 400", status, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("decoding error body: %v", err)
			}
			if er.Field != tc.field {
				t.Errorf("error field: got %q, want %q (%s)", er.Field, tc.field, er.Error)
			}
		})
	}
}

// TestProfileIgnoresCheckpointEvery: CheckpointEvery has no effect on a
// sampled run, so two requests differing in it share one profile. The
// policies differ too, so the second request misses the run cache and
// reaches the profile cache.
func TestProfileIgnoresCheckpointEvery(t *testing.T) {
	s, ts := testServer(t, Config{})
	for i, tc := range []struct {
		policy string
		config string
	}{
		{"LAP", `{}`},
		{"non-inclusive", `{"CheckpointEvery": 5000}`},
	} {
		req := sampledReq("WL1")
		req.Policy = tc.policy
		req.Config = json.RawMessage(tc.config)
		if status, body := post(t, ts.URL+"/v1/run", req); status != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, status, body)
		}
	}
	if ps := s.profiles.Stats(); ps.Computed != 1 {
		t.Errorf("profile passes: got %d, want 1 (CheckpointEvery must not split profiles)", ps.Computed)
	}
}

func TestSweepSampled(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := SweepRequest{
		Policies:       []string{"LAP", "non-inclusive"},
		Mixes:          []string{"WL1"},
		Accesses:       sampledAccesses,
		Mode:           "sampled",
		SampleInterval: 1000,
		SampleClusters: 4,
	}
	status, body := post(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sampled sweep: %d %s", status, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding sweep: %v", err)
	}
	if len(resp.Results) != 2 || resp.Failed != 0 {
		t.Fatalf("sweep shape: %d results, %d failed", len(resp.Results), resp.Failed)
	}
	for _, r := range resp.Results {
		if !r.Sampled || r.Sample == nil {
			t.Errorf("cell %s|%s not sampled: %+v", r.Workload, r.Policy, r)
		}
	}
	// Both policies replay one shared profile: exactly one profiling
	// pass for the whole sweep.
	if ps := s.profiles.Stats(); ps.Computed != 1 {
		t.Errorf("profile passes: got %d, want 1 (policies must share)", ps.Computed)
	}
}
