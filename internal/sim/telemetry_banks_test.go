package sim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestTelemetryDeterministicAcrossBanks pins the contract the sampled
// simulator's profiling pass depends on: at every LLC bank count
// (Config.L3Banks), interval signatures are byte-identical whether the
// run executes alone or concurrently with others, and regardless of the
// host-execution knob CheckpointEvery, and they sum exactly to the full
// run's totals. A diff here means interval fingerprints — and therefore
// cluster assignments and sampled results — would depend on how the
// host schedules runs rather than on the simulated machine.
func TestTelemetryDeterministicAcrossBanks(t *testing.T) {
	const perCore = 20000
	collect := func(cfg Config) ([]Interval, Result) {
		var ivs []Interval
		tel := &Telemetry{
			Interval:   4000,
			OnInterval: func(iv Interval) { ivs = append(ivs, iv) },
		}
		r := RunObserved(cfg, core.NewLAP(), sourcesFor(loopy(), 2, perCore), tel)
		return ivs, r
	}

	for _, banks := range []int{1, 4, 8} {
		cfg := smallCfg()
		cfg.L3Banks = banks
		ivsAlone, resAlone := collect(cfg)

		// The same run twice at once, one with checkpointing requested:
		// neither may perturb the other or the signatures.
		variants := []Config{cfg, cfg}
		variants[1].CheckpointEvery = 3000
		ivs := make([][]Interval, len(variants))
		res := make([]Result, len(variants))
		var wg sync.WaitGroup
		for i, c := range variants {
			wg.Add(1)
			go func(i int, c Config) {
				defer wg.Done()
				ivs[i], res[i] = collect(c)
			}(i, c)
		}
		wg.Wait()

		for v := range variants {
			if len(ivs[v]) != len(ivsAlone) {
				t.Fatalf("L3Banks=%d variant %d emitted %d intervals, lone run emitted %d", banks, v, len(ivs[v]), len(ivsAlone))
			}
			for i := range ivs[v] {
				if ivs[v][i] != ivsAlone[i] {
					t.Fatalf("L3Banks=%d variant %d interval %d differs:\n got %+v\nwant %+v", banks, v, i, ivs[v][i], ivsAlone[i])
				}
			}
			if res[v].Met != resAlone.Met {
				t.Fatalf("L3Banks=%d variant %d metrics differ from the lone run", banks, v)
			}
		}

		// The signatures must also tile the run exactly: per-series sums
		// equal the full-run totals the sampled extrapolation reconstructs.
		var acc, l3acc, misses, wb, fills, tagOnly uint64
		for _, iv := range ivsAlone {
			acc += iv.Accesses
			l3acc += iv.L3Accesses
			misses += iv.L3Misses
			wb += iv.Writebacks
			fills += iv.Fills
			tagOnly += iv.TagOnlyUpdates
		}
		if acc != 2*perCore {
			t.Fatalf("L3Banks=%d: interval accesses sum to %d, want %d", banks, acc, 2*perCore)
		}
		m := resAlone.Met
		for _, c := range []struct {
			name      string
			got, want uint64
		}{
			{"L3Accesses", l3acc, m.L3Accesses},
			{"L3Misses", misses, m.L3Misses},
			{"Writebacks", wb, m.WritesDirty + m.WritesClean},
			{"Fills", fills, m.WritesFill},
			{"TagOnlyUpdates", tagOnly, m.TagOnlyUpdates},
		} {
			if c.got != c.want {
				t.Fatalf("L3Banks=%d %s: interval sum %d != run total %d", banks, c.name, c.got, c.want)
			}
		}
	}
}

// ExampleConfig_banks sets the number of independently scheduled LLC
// banks; the result reports how many accesses each bank served.
func ExampleConfig_banks() {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.L3Banks = 8
	r := Run(cfg, core.NewLAP(), sourcesFor(loopy(), cfg.Cores, 2000))
	fmt.Println(r.Policy, len(r.BankOps))
	// Output: LAP 8
}
