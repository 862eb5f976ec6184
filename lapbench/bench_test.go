package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// shortSizes shrink every workload so each runs in about a second.
var shortSizes = sizes{
	simAccesses:      3_000,
	artifactAccesses: 3_000,
	coldAccesses:     3_000,
	sweepAccesses:    2_000,
	traceRecords:     2_000,
	uploads:          4,
	ckptAccesses:     8_000,
	ckptEvery:        8_000,
	warmAccesses:     2_000,
	setupReps:        2,
}

func shortParams(t *testing.T, workload string, trace bool) params {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return params{workload: workload, seed: 7, seconds: time.Second, trace: trace, root: root, size: shortSizes}
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestEveryMetricDeclared runs each workload at short length, untraced and
// traced, and requires each run to emit exactly the declared end-to-end
// (untraced) or per-layer (traced) metrics, each with its declared unit
// and a direction, and to pass its checks.
func TestEveryMetricDeclared(t *testing.T) {
	d := loadDeclared(t)
	type decl struct{ unit, better string }
	e2e, layer := map[string]decl{}, map[string]decl{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = decl{m.Unit, m.Better}
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = decl{m.Unit, m.Better}
	}
	if got, want := len(d.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", got, want)
	}
	for _, w := range d.Workloads {
		name := w.Name
		if _, ok := workloads[name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q has no runner", name)
		}
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			rep, err := execute(shortParams(t, name, traced))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, traced, res.Failed, res.Attempted)
			}
			for _, m := range sortedKeys(res.Metrics) {
				dc, ok := want[m]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is not declared", name, traced, m)
				case dc.unit != res.Metrics[m].Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", name, m, res.Metrics[m].Unit, dc.unit)
				case dc.better != "lower" && dc.better != "higher":
					t.Errorf("metric %s has no direction", m)
				}
			}
			for _, m := range sortedKeys(want) {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%v: declared metric %s is not emitted", name, traced, m)
				}
			}
		}
	}
}

// TestMutatedExpectedFails corrupts one expected output per workload (for
// artifact-quick, one flipped byte of the golden) and requires the run to
// report a failed operation.
func TestMutatedExpectedFails(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		p := shortParams(t, name, false)
		p.mutateExpected = true
		rep, err := execute(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res := rep.result(); res.Failed == 0 || res.Correct {
			t.Errorf("%s: a mutated expected output was not reported as failed (%d/%d failed)", name, res.Failed, res.Attempted)
		}
	}
}

// TestTracedRejectsCounterMismatch perturbs one simulated counter of each
// probe that compares traced with untraced counters (the simulation and
// checkpoint probes) and requires the probe to report a failure.
func TestTracedRejectsCounterMismatch(t *testing.T) {
	probes := map[string]func(params, *report) (float64, error){
		"sim": simLayers, "checkpoint": ckptLayers,
	}
	for _, name := range sortedKeys(probes) {
		p := shortParams(t, "sim-exact", true)
		p.perturbTraced = true
		rep := newReport()
		if _, err := probes[name](p, rep); err != nil {
			t.Fatalf("%s probe: %v", name, err)
		}
		if res := rep.result(); res.Failed == 0 || res.Correct {
			t.Errorf("%s probe accepted a counter mismatch", name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if tailSupported(99, 0.9) || !tailSupported(100, 0.9) {
		t.Error("p90 needs at least 100 samples")
	}
}
