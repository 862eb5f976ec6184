// Package experiments regenerates every table and figure of the paper's
// evaluation. Each FigNN/TableNN function runs the required simulations
// and returns a Table whose rows mirror the series the paper plots;
// cmd/lapexp prints them and bench_test.go wraps each in a testing.B
// benchmark. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for measured-vs-paper results.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs/journal"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// Options tunes experiment scale. The defaults trade absolute magnitude
// for wall-clock: shapes (ratios between policies) stabilise well below
// the paper's 2B-cycle windows.
type Options struct {
	// Accesses is the per-core trace length.
	Accesses uint64
	// Seed makes the synthetic workloads deterministic.
	Seed uint64
	// RandomMixes is the random-mix count for Figs. 12-14 (paper: 50).
	RandomMixes int
	// DuelPeriod is the set-dueling window in cycles. The paper uses 10M
	// cycles over 2B-cycle runs; our shorter runs scale the window so the
	// duel still re-elects many times per run.
	DuelPeriod uint64
	// Jobs bounds the scheduler's worker pool for the batched simulation
	// runs (see sched.go): 0 means one worker per schedulable CPU
	// (runtime.GOMAXPROCS), 1 forces the fully serial path. Tables are
	// byte-identical for any value; Jobs only changes wall-clock.
	Jobs int
	// Banks sets sim.Config.Banks on every run: intra-run parallelism
	// width for the banked execution engine. Like Jobs it is a pure
	// scheduling knob — results are byte-identical for any value — so it
	// is excluded from memo keys. Jobs parallelises across runs, Banks
	// within one; they compose, but oversubscribing both on a small
	// machine wastes time in the banked engine's spin gate.
	Banks int
	// Trace optionally records per-cell wall-clock spans (and the memo's
	// compute-vs-recall provenance) into a span tracer. Nil — the default
	// — is fully off; tables are byte-identical either way, the tracer
	// only observes. Scheduling-only, like Jobs: not part of memo keys.
	Trace *trace.Tracer
	// Journal optionally streams cell lifecycle events (cell.start,
	// cell.finish, cell.failed — executions only, recalls are silent)
	// into an event journal, so a long lapexp sweep can be watched live.
	// Nil — the default — is fully off; observation-only like Trace, so
	// not part of memo keys.
	Journal *journal.Journal
	// SampleInterval > 0 switches eligible runs to sampled interval
	// simulation (internal/sample) with this window length in accesses
	// per core. Runs that sampling cannot represent — coherent, MOESI-
	// tracked, profiled, or warmup-bounded configurations — silently stay
	// exact, so one flag can accelerate a whole artifact sweep. Unlike
	// Jobs/Banks this changes results (they become estimates), so the
	// sampling knobs ARE part of memo keys: sampled and exact runs never
	// share cache entries.
	SampleInterval uint64
	// SampleClusters is the detailed-interval budget per sampled run
	// (0 = ~sqrt(intervals) automatically).
	SampleClusters int
	// SampleWarmup is the functional re-warm depth before each
	// representative interval.
	SampleWarmup int
	// Checkpoints optionally attaches a durable checkpoint store: exact
	// runs snapshot their machine state every CheckpointEvery accesses
	// and resume from the latest valid snapshot when the same cell is
	// re-run after a crash, and sampling profiles persist across
	// processes. Results are byte-identical with or without a store, so
	// like Jobs/Banks neither field is part of memo keys; checkpoint
	// durability failures degrade to cold starts, never run failures.
	Checkpoints *checkpoint.Store
	// CheckpointEvery is the snapshot spacing in accesses (summed over
	// cores) for checkpointed runs; 0 disables run snapshots even with a
	// store attached (profiles still persist).
	CheckpointEvery uint64
}

// Defaults returns the standard experiment scale.
func Defaults() Options {
	return Options{Accesses: 400_000, Seed: 2016, RandomMixes: 50, DuelPeriod: 250_000}
}

// Quick returns a reduced scale for smoke tests and benchmarks.
func Quick() Options {
	return Options{Accesses: 120_000, Seed: 2016, RandomMixes: 8, DuelPeriod: 100_000}
}

// Table is a printable experiment result.
type Table struct {
	// ID and Title identify the paper artifact ("Fig. 14", ...).
	ID    string
	Title string
	// Header and Rows are the column names and data.
	Header []string
	Rows   [][]string
	// Notes carries interpretation hints printed under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f formats a float compactly.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Policy factories. Each run needs a fresh controller because dueling
// state is per-run. Registered policies are constructed through the core
// registry — the same path the CLI and the API use — so the experiment
// tables cannot drift from the shipped dispatch; only the Fig. 25
// ablation stages (not real policies) are built directly.

// Policy is a fresh-controller factory together with the identity of
// what it builds. The run memo and the checkpoint store key runs on ID,
// never on the label a table prints, so every label for one controller
// ("ex" in Fig. 15, "Exclusive" in Fig. 14) shares one simulation.
type Policy struct {
	// ID renders everything the factory bakes in: the canonical registry
	// name plus the core.PolicyParams it applies, or an ablation stage's
	// switches plus its duel period.
	ID string
	// New builds one controller per run.
	New sim.Controller
	// registryName is the canonical registry name, empty for an ablation
	// stage; sampleEligible reads the registry's capability flags by it.
	registryName string
}

// registered returns the factory for a registry policy.
func registered(name string, params core.PolicyParams) Policy {
	info, ok := core.LookupPolicy(name)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown policy %q", name))
	}
	return Policy{
		ID: fmt.Sprintf("%s%+v", info.Name, params),
		New: func() core.Controller {
			c, err := core.NewPolicy(info.Name, params)
			if err != nil {
				panic(err)
			}
			return c
		},
		registryName: info.Name,
	}
}

// Noni returns the non-inclusive baseline factory.
func Noni() Policy { return registered("non-inclusive", core.PolicyParams{}) }

// Ex returns the exclusive policy factory.
func Ex() Policy { return registered("exclusive", core.PolicyParams{}) }

// Incl returns the inclusive policy factory.
func Incl() Policy { return registered("inclusive", core.PolicyParams{}) }

// dueler is implemented by controllers with set-dueling state.
type dueler interface{ Duel() *cache.Duel }

// withPeriod rescales a controller's dueling window.
func withPeriod(c core.Controller, period uint64) core.Controller {
	if period > 0 {
		if d, ok := c.(dueler); ok {
			d.Duel().PeriodCycles = period
		}
	}
	return c
}

// Flex returns the FLEXclusion factory.
func Flex(opt Options) Policy {
	return registered("FLEXclusion", core.PolicyParams{DuelPeriod: opt.DuelPeriod})
}

// Dswitch returns the Dswitch factory for the LLC technology in cfg: the
// duel weighs writes by the technology's write energy and misses by the
// fill read plus the marginal leakage burned over the exposed (post-MLP)
// portion of a memory access (sim.Config.PolicyParams).
func Dswitch(cfg sim.Config, opt Options) Policy {
	return registered("Dswitch", cfg.PolicyParams(opt.DuelPeriod))
}

// LAP returns the full LAP factory.
func LAP(opt Options) Policy {
	return registered("LAP", core.PolicyParams{DuelPeriod: opt.DuelPeriod})
}

// LAPLRU returns the Fig. 19 always-LRU replacement variant.
func LAPLRU() Policy {
	return registered("LAP-LRU", core.PolicyParams{})
}

// LAPLoop returns the always-loop-aware variant.
func LAPLoop() Policy {
	return registered("LAP-Loop", core.PolicyParams{})
}

// Lhybrid returns the hybrid data-placement policy factory.
func Lhybrid(opt Options) Policy {
	return registered("Lhybrid", core.PolicyParams{DuelPeriod: opt.DuelPeriod})
}

// ReuseDetector returns the STT-RAM reuse-detection bypass competitor.
func ReuseDetector() Policy {
	return registered("reuse-detector", core.PolicyParams{})
}

// RDCopyback returns the reuse-distance copy-back competitor.
func RDCopyback() Policy {
	return registered("rd-copyback", core.PolicyParams{})
}

// hybridStage is the switch set of one Fig. 25 ablation stage.
type hybridStage struct{ Winv, LoopSTT, NloopSRAM bool }

// HybridStage returns a Fig. 25 ablation stage factory.
func HybridStage(opt Options, winv, loopSTT, nloopSRAM bool) Policy {
	stage := hybridStage{winv, loopSTT, nloopSRAM}
	return Policy{
		ID: fmt.Sprintf("stage%+v%+v", stage, core.PolicyParams{DuelPeriod: opt.DuelPeriod}),
		New: func() core.Controller {
			return withPeriod(core.NewHybridStage(winv, loopSTT, nloopSRAM), opt.DuelPeriod)
		},
	}
}

// ratio guards against zero denominators.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
