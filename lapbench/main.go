// Command lapbench is the repository benchmark: three workloads that drive
// the simulator through its public entry points and report end-to-end
// metrics (--trace 0) or per-layer metrics (--trace 1), each checked for
// correctness. It adds no code inside the program; every layer is timed
// from outside, around calls into that layer's exported functions.
//
// Every workload reports the same metrics. End to end, each workload
// repeats one operation (a simulation run, an artifact regeneration, a
// request of the serve mix) and reports its set-up time, peak memory,
// median operation latency and operations per second. The traced run
// measures every layer: the layer probe of the workload's own layers runs
// at the workload's size, the others at a small fixed size (see
// traceLayers).
//
// Run it from the checkout root through lapbench/run.sh, which builds it:
//
//	bash lapbench/run.sh --workload sim-exact --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it stamps the
// host (CPU model, NumCPU, GOMAXPROCS, Go version, commit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run's operation counts, check failures and
// metrics.
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// ok counts one operation whose output passed its check.
func (r *report) ok() { r.attempted++ }

// fail counts one operation whose output failed its check and says why on
// standard error.
func (r *report) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	fmt.Fprintf(os.Stderr, "lapbench: check failed: "+format+"\n", args...)
}

// check counts one operation, failed unless err is nil.
func (r *report) check(err error) {
	if err != nil {
		r.fail("%v", err)
		return
	}
	r.ok()
}

// sizes are the workload lengths. The benchmark uses defaultSizes; the
// benchmark's own tests shrink them.
type sizes struct {
	// simAccesses is sim-exact's per-core trace length.
	simAccesses uint64
	// artifactAccesses overrides experiments.Quick().Accesses when non-zero.
	artifactAccesses uint64
	// coldAccesses and sweepAccesses size serve-mix's cold runs and sweep
	// cells; traceRecords sizes each uploaded trace and uploads counts them.
	coldAccesses  uint64
	sweepAccesses uint64
	traceRecords  int
	uploads       int
	// ckptAccesses and ckptEvery size the checkpoint probe's run and its
	// snapshot spacing (accesses summed over cores).
	ckptAccesses uint64
	ckptEvery    uint64
	// warmAccesses sizes the warm-up simulation every set-up performs, and
	// setupReps is how many times set-up runs (its median is setup_s).
	warmAccesses uint64
	setupReps    int
}

var defaultSizes = sizes{
	simAccesses:   60_000,
	coldAccesses:  20_000,
	sweepAccesses: 10_000,
	traceRecords:  20_000,
	uploads:       200,
	ckptAccesses:  120_000,
	ckptEvery:     100_000,
	warmAccesses:  40_000,
	setupReps:     11,
}

// probe shrinks s for the layer probes a traced run makes of layers its
// workload does not own: a quarter of every length, but no shorter than
// 5000 accesses, and an artifact set at a sixth of experiments.Quick()'s
// length.
func (s sizes) probe() sizes {
	quarter := func(n uint64) uint64 { return max(n/4, min(n, 5_000)) }
	q := s
	q.simAccesses = quarter(s.simAccesses)
	q.artifactAccesses = quarter(s.artifactAccesses)
	if s.artifactAccesses == 0 {
		q.artifactAccesses = experiments.Quick().Accesses / 6
	}
	q.coldAccesses = quarter(s.coldAccesses)
	q.sweepAccesses = quarter(s.sweepAccesses)
	q.traceRecords = max(s.traceRecords/4, 1_000)
	q.uploads = max(s.uploads/10, 4)
	return q
}

// probeSeconds bounds the serve probe's phases when serve-mix is not the
// workload being traced.
const probeSeconds = 4 * time.Second

// params is one benchmark invocation.
type params struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the checkout root (the working directory).
	root string
	size sizes
	// mutateExpected corrupts one expected output, and perturbTraced one
	// traced simulated counter, so tests can see the checks fire.
	mutateExpected bool
	perturbTraced  bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(p params) (*report, error){
	"sim-exact":      runSimExact,
	"artifact-quick": runArtifactQuick,
	"serve-mix":      runServeMix,
}

func main() {
	name := flag.String("workload", "", "workload: sim-exact, artifact-quick or serve-mix")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	traceOn := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	_, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "lapbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapbench: %v\n", err)
		os.Exit(1)
	}
	p := params{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traceOn == 1,
		root:     root,
		size:     defaultSizes,
	}
	rep, err := execute(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	host, _ := json.Marshal(hostStamp(root))
	fmt.Printf("host %s\n", host)
	out, _ := json.Marshal(rep.result())
	fmt.Println(string(out))
}

// execute runs one workload untraced and adds the process-wide metrics,
// or runs the layer probes when p.trace is set.
func execute(p params) (*report, error) {
	if p.trace {
		rep := newReport()
		if err := traceLayers(p, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	rep, err := workloads[p.workload](p)
	if err != nil {
		return nil, err
	}
	rep.set("max_rss_mb", "MB", maxRSSMB())
	return rep, nil
}

// setOps reports the end-to-end operation metrics: the median of the
// operations' latencies and how many completed per second of window.
func (r *report) setOps(latencies []time.Duration, window time.Duration) {
	ms := make([]float64, len(latencies))
	for i, d := range latencies {
		ms[i] = float64(d) / 1e6
	}
	r.set("op_p50_ms", "ms", median(ms))
	r.set("ops_per_s", "1/s", float64(len(latencies))/window.Seconds())
	fmt.Printf("samples op_p50_ms %d\n", len(latencies))
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// measureSetup runs setup reps times and returns the median duration in
// seconds, with the state the last repetition built. Repeating set-up and
// reporting the median keeps setup_s steady across processes.
func measureSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var st T
	durs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		st = s
	}
	return st, median(durs), nil
}

// repeatFor calls iter until budget is spent, at least once, and never
// starts an iteration that would run past the budget judging by the mean
// iteration so far.
func repeatFor(budget time.Duration, iter func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := iter(); err != nil {
			return err
		}
		spent := time.Since(start)
		if spent+spent/time.Duration(n) > budget {
			return nil
		}
	}
}
