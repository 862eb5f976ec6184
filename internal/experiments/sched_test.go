package experiments

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestOptionsWorkers(t *testing.T) {
	cases := []struct {
		jobs, want int
	}{
		{jobs: -1, want: 1}, // negative is a caller bug: clamp to serial
		{jobs: 0, want: runtime.GOMAXPROCS(0)},
		{jobs: 1, want: 1},
		{jobs: 3, want: 3},
		{jobs: 8, want: 8},
	}
	for _, c := range cases {
		if got := (Options{Jobs: c.jobs}).workers(); got != c.want {
			t.Errorf("Jobs=%d workers = %d, want %d", c.jobs, got, c.want)
		}
	}
}

// TestDeterminismAcrossJobs regenerates every registry artifact serially
// and on an 8-worker pool and requires identical tables: the scheduler
// must be invisible in the output. Set LAP_DETERMINISM_SCALE=quick to run
// the comparison at the Quick() scale instead of the reduced test scale.
// Under -race the sweep narrows to a subset that still covers every
// scheduler path (see race_on_test.go).
func TestDeterminismAcrossJobs(t *testing.T) {
	opt := Options{Accesses: 20_000, Seed: 2016, RandomMixes: 2, DuelPeriod: 40_000}
	ids := Order()
	if raceEnabled {
		// Mix warm batches (table3/fig14) and threaded warm batches
		// (fig20) cover every scheduler path; the full registry would
		// take tens of minutes under the detector's slowdown.
		ids = []string{"table3", "fig14", "fig20"}
		opt.Accesses = 8_000
		opt.RandomMixes = 1
		t.Logf("race detector on: comparing subset %v at %d accesses", ids, opt.Accesses)
	}
	if os.Getenv("LAP_DETERMINISM_SCALE") == "quick" {
		opt = Quick()
		ids = Order()
	}

	generate := func(jobs int) map[string]*Table {
		ResetMemo()
		o := opt
		o.Jobs = jobs
		reg := Registry(o)
		out := make(map[string]*Table, len(reg))
		for _, id := range ids {
			out[id] = reg[id]()
		}
		return out
	}
	serial := generate(1)
	parallel := generate(8)
	for _, id := range ids {
		s, p := serial[id], parallel[id]
		if !reflect.DeepEqual(s.Header, p.Header) {
			t.Errorf("%s: headers differ between Jobs=1 and Jobs=8", id)
		}
		if !reflect.DeepEqual(s.Rows, p.Rows) {
			t.Errorf("%s: rows differ between Jobs=1 and Jobs=8\nserial:   %v\nparallel: %v",
				id, s.Rows, p.Rows)
		}
		if !reflect.DeepEqual(s.Notes, p.Notes) {
			t.Errorf("%s: notes differ between Jobs=1 and Jobs=8", id)
		}
	}
}

// TestSingleflightSharesComputation races many goroutines on one fresh
// key and requires exactly one compute, with every caller observing its
// result.
func TestSingleflightSharesComputation(t *testing.T) {
	ResetMemo()
	key := memoKey{Policy: "singleflight-test", Seed: 42}
	var computes atomic.Int64
	var release = make(chan struct{})
	const callers = 32
	results := make([]sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = memo.Do(key, func() sim.Result {
				<-release // hold the latch so duplicates must wait
				computes.Add(1)
				return sim.Result{Policy: "only-once"}
			})
		}()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if r.Policy != "only-once" {
			t.Fatalf("caller %d observed %+v", i, r)
		}
	}
	if memo.Len() != 1 {
		t.Fatalf("memo size = %d, want 1", memo.Len())
	}
}

// TestMemoHammer drives duplicate keys and concurrent resets through the
// memo; it exists chiefly for go test -race, which verifies the memo's
// locking discipline end to end.
func TestMemoHammer(t *testing.T) {
	ResetMemo()
	const (
		goroutines = 16
		iterations = 200
		keys       = 7
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := memoKey{Policy: "hammer", Seed: uint64(i % keys)}
				want := fmt.Sprintf("hammer-%d", i%keys)
				res := memo.Do(k, func() sim.Result {
					return sim.Result{Policy: want}
				})
				if res.Policy != want {
					t.Errorf("key %d returned result for %q", i%keys, res.Policy)
					return
				}
				if i%50 == 0 && g == 0 {
					ResetMemo()
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoPanicDoesNotPoison ensures a panicking compute neither
// deadlocks waiters nor leaves a zero-value result cached.
func TestMemoPanicDoesNotPoison(t *testing.T) {
	ResetMemo()
	key := memoKey{Policy: "panic-test"}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic to propagate")
			}
		}()
		memo.Do(key, func() sim.Result { panic("boom") })
	}()
	if memo.Len() != 0 {
		t.Fatalf("poisoned entry survived: memo size = %d", memo.Len())
	}
	res := memo.Do(key, func() sim.Result { return sim.Result{Policy: "retry"} })
	if res.Policy != "retry" {
		t.Fatalf("retry after panic returned %+v", res)
	}
}

// TestWarmPopulatesMemo checks that a warmed batch leaves every run
// cached, so the collection pass is pure recall.
func TestWarmPopulatesMemo(t *testing.T) {
	ResetMemo()
	opt := Options{Accesses: 10_000, Seed: 9, RandomMixes: 1, DuelPeriod: 40_000, Jobs: 4}
	cfg := sim.DefaultConfig()
	mixes := workload.TableIII()[:2]
	warmMixRuns(cfg, opt, mixes, noniPol(), exPol())
	if got, want := memo.Len(), len(mixes)*2; got != want {
		t.Fatalf("memo size after warm = %d, want %d", got, want)
	}
	before := Stats()
	run(cfg, "noni", Noni(), mixes[0], opt)
	after := Stats()
	if after.Computed != before.Computed {
		t.Error("collection after warm recomputed a run")
	}
	if after.Recalled != before.Recalled+1 {
		t.Error("collection after warm did not count a recall")
	}
}

// TestWarmSerialIsNoop: with one worker the warm pass must not execute
// anything — Jobs=1 is the exact pre-scheduler serial path.
func TestWarmSerialIsNoop(t *testing.T) {
	ran := false
	warm(Options{Jobs: 1}, []func(){func() { ran = true }})
	if ran {
		t.Fatal("warm executed its batch with Jobs=1")
	}
}

// TestMemoKeyConfigFields walks sim.Config and rejects any field kind
// that would compare by identity (pointers) or not compile as a map key
// at all. The compiler already rejects non-comparable kinds because
// memoKey embeds Config by value; this test catches pointers, which
// compare but would split memo entries that are semantically equal.
func TestMemoKeyConfigFields(t *testing.T) {
	var check func(path string, tp reflect.Type)
	check = func(path string, tp reflect.Type) {
		switch tp.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s has kind %s: unusable as part of the memo key", path, tp.Kind())
		case reflect.Struct:
			for i := 0; i < tp.NumField(); i++ {
				f := tp.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", tp.Elem())
		}
	}
	check("sim.Config", reflect.TypeOf(sim.Config{}))
}

// TestFig15RecallsFig14Runs: the memo keys runs on what the factory
// builds, not on the table label, so Fig. 15's "noni"/"ex"/"LAP" cells
// are the Table III runs Fig. 14 already computed (there labelled
// "noni"/"Exclusive"/"LAP") and Fig. 15 simulates nothing new.
func TestFig15RecallsFig14Runs(t *testing.T) {
	ResetMemo()
	opt := Options{Accesses: 4_000, Seed: 2016, RandomMixes: 1, DuelPeriod: 40_000}
	Fig14(opt)
	before := Stats()
	Fig15(opt)
	after := Stats()
	if n := after.Computed - before.Computed; n != 0 {
		t.Errorf("Fig15 after Fig14 computed %d runs, want 0", n)
	}
	if after.Recalled == before.Recalled {
		t.Error("Fig15 after Fig14 recalled nothing")
	}
}

// TestPolicyIDs: a Policy's ID must tell apart everything its factory
// bakes in and nothing else.
func TestPolicyIDs(t *testing.T) {
	opt := Options{DuelPeriod: 40_000}
	other := Options{DuelPeriod: 80_000}
	stt := sim.DefaultConfig()
	same := [][2]Policy{
		{Ex(), registered("Exclusive", core.PolicyParams{})},
		{LAP(opt), registered("lap", core.PolicyParams{DuelPeriod: opt.DuelPeriod})},
		{HybridStage(opt, true, false, false), HybridStage(opt, true, false, false)},
	}
	for _, p := range same {
		if p[0].ID != p[1].ID {
			t.Errorf("one controller, two IDs: %q vs %q", p[0].ID, p[1].ID)
		}
	}
	distinct := []Policy{
		Noni(), Ex(), Incl(), Flex(opt), Flex(other),
		Dswitch(stt, opt), Dswitch(stt.WithSRAML3(), opt), Dswitch(stt, other),
		LAP(opt), LAP(other), LAPLRU(), LAPLoop(), Lhybrid(opt),
		ReuseDetector(), RDCopyback(),
		registered("LAP+DWB", core.PolicyParams{DuelPeriod: opt.DuelPeriod}),
		HybridStage(opt, true, false, false), HybridStage(opt, false, true, false),
		HybridStage(opt, false, false, true), HybridStage(other, true, false, false),
	}
	seen := map[string]int{}
	for i, p := range distinct {
		if j, dup := seen[p.ID]; dup {
			t.Errorf("policies %d and %d share ID %q", j, i, p.ID)
		}
		seen[p.ID] = i
	}
	// ID renders PolicyParams with %+v, which is exact only for scalar
	// fields.
	tp := reflect.TypeOf(core.PolicyParams{})
	for i := 0; i < tp.NumField(); i++ {
		switch k := tp.Field(i).Type.Kind(); k {
		case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64, reflect.String:
		default:
			t.Errorf("core.PolicyParams.%s has kind %s: Policy.ID cannot render it exactly", tp.Field(i).Name, k)
		}
	}
}
