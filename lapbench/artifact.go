package main

// artifact-quick: the policy-smoke artifact set (fig14, fig15, fig18,
// fig19, fig24) at experiments.Quick() scale, in one process with one
// experiments memo and Jobs = NumCPU. It puts the pool and the memo on the
// blocking path (fig15 and fig18 are mostly recalled from fig14's cells)
// and uses the hybrid LLC (fig24) and the replacement variants (fig19).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
)

// artifactIDs are the artifacts of the policy-smoke golden, in its order.
var artifactIDs = []string{"fig14", "fig15", "fig18", "fig19", "fig24"}

// goldenPath is the policy-smoke golden, read in place so that a
// correctness fix updates one file.
const goldenPath = "cmd/policysmoke/testdata/golden_quick.txt"

func artifactOptions(p params) experiments.Options {
	opt := experiments.Quick()
	opt.Seed = p.seed
	opt.Jobs = runtime.NumCPU()
	if p.size.artifactAccesses > 0 {
		opt.Accesses = p.size.artifactAccesses
	}
	return opt
}

// artifactCheck compares one regeneration against the golden. At the
// golden's own scale and seed the output must be byte-equal; at any other
// seed or length the numbers differ, so every line must match the golden
// with each number masked (same tables, headers, rows and notes).
type artifactCheck struct {
	golden []byte
	exact  bool
}

func (c artifactCheck) name() string {
	if c.exact {
		return "golden: byte-equal to " + goldenPath
	}
	return "structure: equal to " + goldenPath + " with numbers masked"
}

var numberRE = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)

func maskNumbers(b []byte) string {
	return strings.Join(strings.Fields(numberRE.ReplaceAllString(string(b), "#")), " ")
}

func (c artifactCheck) verify(out []byte) error {
	if c.exact {
		if !bytes.Equal(out, c.golden) {
			return fmt.Errorf("artifact output differs from %s", goldenPath)
		}
		return nil
	}
	if maskNumbers(out) != maskNumbers(c.golden) {
		return fmt.Errorf("artifact tables differ in shape from %s", goldenPath)
	}
	return nil
}

// regenerate produces the artifact set once on a fresh memo, returning the
// output and each artifact's wall time.
func regenerate(opt experiments.Options) ([]byte, []time.Duration, error) {
	experiments.ResetMemo()
	reg := experiments.Registry(opt)
	var buf bytes.Buffer
	durs := make([]time.Duration, len(artifactIDs))
	for i, id := range artifactIDs {
		gen, ok := reg[id]
		if !ok {
			return nil, nil, fmt.Errorf("artifact %q missing from the experiment registry", id)
		}
		t0 := time.Now()
		gen().Fprint(&buf)
		durs[i] = time.Since(t0)
	}
	return buf.Bytes(), durs, nil
}

// loadArtifactCheck reads the golden and decides which check applies.
func loadArtifactCheck(p params) (artifactCheck, error) {
	golden, err := os.ReadFile(filepath.Join(p.root, goldenPath))
	if err != nil {
		return artifactCheck{}, err
	}
	if p.mutateExpected {
		golden[0] ^= 1
	}
	exact := p.seed == experiments.Quick().Seed && p.size.artifactAccesses == 0
	return artifactCheck{golden: golden, exact: exact}, nil
}

func runArtifactQuick(p params) (*report, error) {
	rep := newReport()
	chk, setup, err := measureSetup(p.size.setupReps, func() (artifactCheck, error) {
		chk, err := loadArtifactCheck(p)
		if err != nil {
			return chk, err
		}
		return chk, warmUp(p)
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("check artifact-quick %s\n", chk.name())
	rep.set("setup_s", "s", setup)

	// The operation is one regeneration of the whole set.
	opt := artifactOptions(p)
	var lat []time.Duration
	start := time.Now()
	err = repeatFor(p.seconds, func() error {
		out, durs, err := regenerate(opt)
		if err != nil {
			return err
		}
		rep.check(chk.verify(out))
		var total time.Duration
		for _, d := range durs {
			total += d
		}
		lat = append(lat, total)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.setOps(lat, time.Since(start))
	return rep, nil
}

// artifactLayers is artifact-quick's layer probe: one untraced
// regeneration (per-artifact times, and the base for the tracing
// overhead), then one with cell spans on, whose output must be byte-equal
// to the untraced one. Pool and memo counters come from
// experiments.RegisterMetrics, cell times from the memo.compute spans.
func artifactLayers(p params, rep *report) (float64, error) {
	chk, err := loadArtifactCheck(p)
	if err != nil {
		return 0, err
	}
	fmt.Printf("check artifact-quick layer probe %s\n", chk.name())
	opt := artifactOptions(p)
	plain, durs, err := regenerate(opt)
	if err != nil {
		return 0, err
	}
	rep.check(chk.verify(plain))
	var plainTotal time.Duration
	for i, id := range artifactIDs {
		rep.set("experiments."+id+"_s", "s", durs[i].Seconds())
		plainTotal += durs[i]
	}

	reg := obs.NewRegistry()
	experiments.RegisterMetrics(reg, "bench")
	before := reg.Snapshot()
	opt.Trace = otrace.New(1 << 16)
	t0 := time.Now()
	traced, _, err := regenerate(opt)
	if err != nil {
		return 0, err
	}
	wall := time.Since(t0)
	after := reg.Snapshot()
	if !bytes.Equal(traced, plain) {
		rep.fail("traced artifact output differs from the untraced output")
	} else {
		rep.ok()
	}

	var cells []float64 // memo.compute span durations, ms
	for _, ev := range opt.Trace.Events() {
		if ev.Phase == otrace.PhaseSpan && ev.Name == "memo.compute" {
			cells = append(cells, float64(ev.Dur)/1000)
		}
	}
	if len(cells) == 0 {
		return 0, fmt.Errorf("the traced regeneration recorded no memo.compute spans")
	}
	if dropped := opt.Trace.Dropped(); dropped > 0 {
		return 0, fmt.Errorf("the span ring dropped %d events", dropped)
	}
	busy := sum(cells) / 1000
	rep.set("experiments.cell_p50_ms", "ms", median(cells))
	rep.set("experiments.cell_max_ms", "ms", maxOf(cells))
	rep.set("pool.busy_s", "s", busy)
	rep.set("pool.utilization", "ratio", busy/(wall.Seconds()*float64(opt.Jobs)))
	delta := func(name string) float64 { return after[name] - before[name] }
	computed, recalled := delta("bench_memo_computed_total"), delta("bench_memo_recalled_total")
	rep.set("pool.tasks", "count", delta("bench_pool_tasks_total"))
	rep.set("memo.computed", "count", computed)
	rep.set("memo.recalled", "count", recalled)
	rep.set("memo.recall_ratio", "ratio", recalled/(computed+recalled))
	return wall.Seconds()/plainTotal.Seconds() - 1, nil
}
