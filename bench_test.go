package lap

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (regenerating the artifact end-to-end at the Quick experiment
// scale), plus microbenchmarks of the simulator's hot paths and ablation
// benches for the design choices called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Absolute artifact numbers at Quick scale are noisier than cmd/lapexp's
// defaults; the benches exist to regenerate each artifact reproducibly
// and to track simulator performance.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchArtifactJobs regenerates one paper artifact per iteration on the
// given worker count (0 = GOMAXPROCS, 1 = serial).
func benchArtifactJobs(b *testing.B, id string, jobs int) {
	benchArtifactBanks(b, id, jobs, 0)
}

// benchArtifactBanks additionally sets the intra-run parallelism width
// (sim.Config.Banks) of every simulation in the artifact.
func benchArtifactBanks(b *testing.B, id string, jobs, banks int) {
	opt := experiments.Quick()
	opt.Jobs = jobs
	opt.Banks = banks
	gen, ok := experiments.Registry(opt)[id]
	if !ok {
		b.Fatalf("unknown artifact %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.ResetMemo()
		tab := gen()
		if len(tab.Rows) == 0 {
			b.Fatalf("artifact %s produced no rows", id)
		}
	}
}

// benchArtifact regenerates one paper artifact per iteration on the
// default worker pool.
func benchArtifact(b *testing.B, id string) { benchArtifactJobs(b, id, 0) }

func BenchmarkTable1(b *testing.B) { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchArtifact(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchArtifact(b, "table4") }
func BenchmarkFig2(b *testing.B)   { benchArtifact(b, "fig2") }
func BenchmarkFig4(b *testing.B)   { benchArtifact(b, "fig4") }
func BenchmarkFig6(b *testing.B)   { benchArtifact(b, "fig6") }
func BenchmarkFig12(b *testing.B)  { benchArtifact(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchArtifact(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchArtifact(b, "fig14") }

// The serial/parallel pair quantifies the scheduler's speedup on the
// heaviest artifact (compare ns/op across the two), and the Banks
// variant the banked engine's intra-run speedup on top of serial
// scheduling (one run at a time, four workers inside it).
func BenchmarkFig14Serial(b *testing.B)   { benchArtifactJobs(b, "fig14", 1) }
func BenchmarkFig14Parallel(b *testing.B) { benchArtifactJobs(b, "fig14", 0) }
func BenchmarkFig14Banks4(b *testing.B)   { benchArtifactBanks(b, "fig14", 1, 4) }

// BenchmarkFig14Sampled regenerates Fig. 14 in interval-sampled mode
// (one functional profiling pass per mix, detailed simulation of one
// representative per cluster, extrapolation by weight). Compare ns/op
// against BenchmarkFig14 in BENCH_sim.json for the exact-vs-sampled
// speedup; `make sample-smoke` asserts the accompanying accuracy bound.
func BenchmarkFig14Sampled(b *testing.B) {
	opt := experiments.Quick()
	// The recommended sampled operating point (see EXPERIMENTS.md):
	// 1000-access intervals, auto clusters, one warmup interval.
	opt.SampleInterval = 1000
	gen := experiments.Registry(opt)["fig14"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.ResetMemo()
		tab := gen()
		if len(tab.Rows) == 0 {
			b.Fatal("artifact fig14 produced no rows")
		}
	}
}
func BenchmarkFig15(b *testing.B) { benchArtifact(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchArtifact(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchArtifact(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchArtifact(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchArtifact(b, "fig19") }
func BenchmarkFig20(b *testing.B) { benchArtifact(b, "fig20") }
func BenchmarkFig21(b *testing.B) { benchArtifact(b, "fig21") }
func BenchmarkFig22(b *testing.B) { benchArtifact(b, "fig22") }
func BenchmarkFig23(b *testing.B) { benchArtifact(b, "fig23") }
func BenchmarkFig24(b *testing.B) { benchArtifact(b, "fig24") }
func BenchmarkFig25(b *testing.B) { benchArtifact(b, "fig25") }

// BenchmarkMemoRecall measures memo-hit throughput under contention:
// fig18 is generated once to fill the memo, then concurrent goroutines
// regenerate it, with every simulation served from the shared cache.
func BenchmarkMemoRecall(b *testing.B) {
	opt := experiments.Quick()
	gen := experiments.Registry(opt)["fig18"]
	experiments.ResetMemo()
	if tab := gen(); len(tab.Rows) == 0 {
		b.Fatal("fig18 produced no rows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if tab := gen(); len(tab.Rows) == 0 {
				b.Fatal("fig18 produced no rows")
			}
		}
	})
}

// --- Simulator microbenchmarks ---

// benchPolicy measures end-to-end simulation speed (accesses/op) for one
// policy on a loop-heavy mix.
func benchPolicy(b *testing.B, p Policy) { benchPolicyBanks(b, p, 0) }

func benchPolicyBanks(b *testing.B, p Policy, banks int) {
	cfg := DefaultConfig()
	cfg.Banks = banks
	if p == PolicyLhybrid {
		cfg = cfg.WithHybridL3()
	}
	mix := Mix{Name: "bench", Members: []string{"omnetpp", "libquantum", "mcf", "xalancbmk"}}
	const accesses = 100_000
	b.ReportAllocs()
	b.SetBytes(int64(accesses * cfg.Cores)) // "bytes" = accesses simulated
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, p, mix, accesses, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimNonInclusive(b *testing.B) { benchPolicy(b, PolicyNonInclusive) }
func BenchmarkSimExclusive(b *testing.B)    { benchPolicy(b, PolicyExclusive) }
func BenchmarkSimFLEXclusion(b *testing.B)  { benchPolicy(b, PolicyFLEXclusion) }
func BenchmarkSimDswitch(b *testing.B)      { benchPolicy(b, PolicyDswitch) }
func BenchmarkSimLAP(b *testing.B)          { benchPolicy(b, PolicyLAP) }
func BenchmarkSimLAPBanks4(b *testing.B)    { benchPolicyBanks(b, PolicyLAP, 4) }
func BenchmarkSimLhybrid(b *testing.B)      { benchPolicy(b, PolicyLhybrid) }

// BenchmarkCacheLookup measures the raw set-associative lookup path.
func BenchmarkCacheLookup(b *testing.B) {
	c := cache.New(cache.Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, BlockBytes: 64})
	for blk := uint64(0); blk < 1<<17; blk++ {
		set := c.SetOf(blk)
		c.InsertAt(set, c.LRUVictim(set), blk, false, blk%3 == 0, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i) & (1<<18 - 1))
	}
}

// BenchmarkLoopAwareVictim measures the paper's replacement selector.
func BenchmarkLoopAwareVictim(b *testing.B) {
	c := cache.New(cache.Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, BlockBytes: 64})
	for blk := uint64(0); blk < 1<<17; blk++ {
		set := c.SetOf(blk)
		c.InsertAt(set, c.LRUVictim(set), blk, blk%2 == 0, blk%3 == 0, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.LoopAwareVictim(i & (c.NumSets() - 1))
	}
}

// BenchmarkWorkloadGen measures synthetic access generation.
func BenchmarkWorkloadGen(b *testing.B) {
	src := workload.New(workload.SPEC()[3], 1) // omnetpp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := src.Next(); !ok {
			b.Fatal("endless source ended")
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationDuelInterval sweeps the set-dueling window and reports
// LAP's EPI vs non-inclusion as a custom metric (epi_rel).
func BenchmarkAblationDuelInterval(b *testing.B) {
	cfg := DefaultConfig()
	mix := Mix{Name: "wh", Members: []string{"omnetpp", "xalancbmk", "bzip2", "omnetpp"}}
	for _, period := range []uint64{50_000, 250_000, 1_000_000} {
		b.Run(formatUint(period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := Run(cfg, PolicyNonInclusive, mix, 120_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				ctrl := core.NewLAP()
				ctrl.Duel().PeriodCycles = period
				srcs, err := sim.MixSources(mix, 120_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				res := sim.Run(cfg, ctrl, srcs)
				b.ReportMetric(res.EPI.Total()/base.EPI.Total(), "epi_rel")
			}
		})
	}
}

// BenchmarkAblationBankOccupancy compares fully blocking LLC banks with
// the sub-banked default, reporting relative throughput.
func BenchmarkAblationBankOccupancy(b *testing.B) {
	mix := Mix{Name: "wh", Members: []string{"omnetpp", "xalancbmk", "bzip2", "omnetpp"}}
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		b.Run(formatFrac(frac), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.BankOccupancyFrac = frac
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, PolicyExclusive, mix, 120_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Throughput, "throughput")
			}
		})
	}
}

// BenchmarkAblationReplacement compares LAP's replacement variants,
// reporting each variant's EPI relative to non-inclusion.
func BenchmarkAblationReplacement(b *testing.B) {
	cfg := DefaultConfig()
	mix := Mix{Name: "wh", Members: []string{"omnetpp", "xalancbmk", "bzip2", "omnetpp"}}
	for _, p := range []Policy{PolicyLAPLRU, PolicyLAPLoop, PolicyLAP} {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := Run(cfg, PolicyNonInclusive, mix, 120_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := Run(cfg, p, mix, 120_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.EPI.Total()/base.EPI.Total(), "epi_rel")
			}
		})
	}
}

func formatUint(v uint64) string {
	switch {
	case v >= 1_000_000:
		return "period-1M"
	case v >= 250_000:
		return "period-250k"
	default:
		return "period-50k"
	}
}

func formatFrac(f float64) string {
	switch f {
	case 0.25:
		return "occ-0.25"
	case 0.5:
		return "occ-0.50"
	default:
		return "occ-1.00"
	}
}

// Extension artifacts.
func BenchmarkExtRRIP(b *testing.B)  { benchArtifact(b, "ext-rrip") }
func BenchmarkExtFNW(b *testing.B)   { benchArtifact(b, "ext-fnw") }
func BenchmarkExtSeeds(b *testing.B) { benchArtifact(b, "ext-seeds") }

// BenchmarkSimWithDRAM measures the row-buffer memory model's overhead.
func BenchmarkSimWithDRAM(b *testing.B) {
	cfg := DefaultConfig()
	cfg.UseDRAM = true
	mix := Mix{Name: "bench", Members: []string{"omnetpp", "libquantum", "mcf", "xalancbmk"}}
	const accesses = 100_000
	b.ReportAllocs()
	b.SetBytes(int64(accesses * cfg.Cores))
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, PolicyLAP, mix, accesses, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}
