// Command lapserved serves simulations over HTTP: POST /v1/run for one
// simulation, POST /v1/sweep for a (mix × policy) grid fanned out on a
// worker pool, POST /v1/traces to upload binary traces, plus /healthz
// and /v1/stats. Identical concurrent requests coalesce onto a single
// simulation and completed results are recalled from an LRU-bounded
// cache, so a fleet of clients hammering the same grid costs one pass.
//
// Examples:
//
//	lapserved -addr :8080
//	curl -s localhost:8080/v1/run -d '{"mix":"WH1","policy":"LAP"}'
//	curl -s localhost:8080/v1/sweep -d '{"jobs":8}'
//	gzip -c trace.bin | curl -s --data-binary @- 'localhost:8080/v1/traces?name=loop'
//	curl -s localhost:8080/v1/stats
//
// SIGINT/SIGTERM drain gracefully: /readyz flips to 503 so balancers
// stop routing here (liveness on /healthz stays 200 — a draining
// process must not be restarted), new work is refused, open /v1/events
// streams are closed after delivering their queued events, and
// in-flight requests get -drain-timeout to finish.
//
// Live observability rides alongside /metrics: GET /v1/events streams
// the operational journal (run lifecycle, per-interval telemetry,
// breaker/checkpoint/watchdog transitions, fault hits, contained pool
// panics) as Server-Sent Events with Last-Event-ID resume and
// ?kind=/?run= filters; -journal-capacity bounds the replay ring
// (negative disables it). Rolling-window SLO burn rates
// (-slo-objective, -slo-latency-target) and a per-subsystem watchdog
// (-watchdog-interval) feed /metrics and the slo block in /v1/stats.
// GET /debug/bundle downloads one tar.gz with everything a support
// engineer asks for first: metrics, recent events and traces, resolved
// config, stats, and goroutine/heap profiles.
//
// -checkpoint-dir attaches a durable checkpoint store: exact mix runs
// snapshot machine state every -checkpoint-every accesses, and a
// re-issued run after a crash (even SIGKILL) warm-starts from the
// latest valid snapshot — at most one checkpoint interval of work is
// lost per started run, and results are byte-identical to an
// uninterrupted run. -trace-store-dir persists /v1/traces uploads
// across restarts through the same temp-file + atomic-rename
// discipline. Corrupt or stale files are quarantined and counted
// (lap_checkpoint_corrupt_total); durability failures degrade to cold
// starts, never request failures.
//
// Failed runs are never cached; conclusive failures are retried with
// exponential backoff (-retry-max, -retry-backoff), and a streak of
// -breaker-threshold consecutive failures opens a circuit breaker that
// sheds simulation requests with 503 + Retry-After until
// -breaker-cooldown passes. The LAP_FAULTS environment variable arms
// internal/fault injection points for chaos runs.
//
// Every simulation request is traced: the response carries an X-Trace-Id
// header and GET /v1/trace/{id} returns that request's Chrome
// trace-event timeline (admission, queue wait, memo lookup, retry
// attempts, execution). -trace-requests bounds the in-memory trace
// store (negative disables tracing); -trace-dir additionally writes
// each trace to disk. Requests are logged as JSON lines on stderr with
// the matching trace_id.
//
// -smoke starts the server on a loopback port, exercises /healthz, one
// /v1/run, and a coalesced duplicate pair, then verifies via /v1/stats
// that the duplicate was recalled rather than recomputed, and that a
// misspelt config key is a 400 naming the key. It exits
// non-zero on any failure, making it a one-command integration check
// (`make serve-smoke`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux; mounted only with -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	lap "repro"
	"repro/internal/fault"
	"repro/internal/obs/health"
	"repro/internal/obs/journal"
	"repro/internal/pool"
	"repro/internal/server"
	"repro/internal/servertest"
)

func main() {
	if n, err := fault.ArmFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "lapserved: %s: %v\n", fault.EnvVar, err)
		os.Exit(1)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "lapserved: [%d fault spec(s) armed from %s]\n", n, fault.EnvVar)
	}
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrently executing simulations")
	queueDepth := flag.Int("queue-depth", 256, "max admitted-but-unfinished jobs before 429")
	timeout := flag.Duration("request-timeout", 2*time.Minute, "per-request queue+run deadline")
	memoEntries := flag.Int("memo-entries", 4096, "result cache bound (LRU; negative = unbounded)")
	maxAccesses := flag.Uint64("max-accesses", 4_000_000, "per-core trace length cap for one run")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown grace for in-flight requests")
	retryMax := flag.Int("retry-max", 2, "retries per failed run (negative = none)")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base retry backoff (doubles per attempt, plus jitter)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that open the circuit breaker (negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker shed window before a half-open probe")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceRequests := flag.Int("trace-requests", 0, "recent per-request traces kept for GET /v1/trace/{id} (0 = 64; negative disables tracing)")
	traceDir := flag.String("trace-dir", "", "also write each request's Chrome trace-event JSON into this directory")
	traceStoreDir := flag.String("trace-store-dir", "", "durably persist /v1/traces uploads in this directory (reloaded at boot)")
	checkpointDir := flag.String("checkpoint-dir", "", "durable checkpoint store: runs snapshot and warm-start across restarts")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "checkpoint spacing in accesses, summed over cores (0 = 1,000,000 with -checkpoint-dir)")
	journalCapacity := flag.Int("journal-capacity", 0, "operational event ring size behind /v1/events (0 = default; negative disables the journal)")
	watchdogInterval := flag.Duration("watchdog-interval", 15*time.Second, "background health-probe period (0 = probe only on GET /readyz)")
	sloObjective := flag.Float64("slo-objective", 0, "availability objective for burn-rate tracking, e.g. 0.999 (0 = default)")
	sloLatencyTarget := flag.Duration("slo-latency-target", 0, "request latency target for the latency SLO (0 = default)")
	smoke := flag.Bool("smoke", false, "self-test against a loopback instance and exit")
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "lapserved: -trace-dir: %v\n", err)
			os.Exit(1)
		}
	}
	var ckpt *lap.CheckpointStore
	if *checkpointDir != "" {
		var err error
		ckpt, err = lap.OpenCheckpointStore(*checkpointDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lapserved: -checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
	}
	cfg := server.Config{
		Jobs:             *jobs,
		QueueDepth:       *queueDepth,
		RequestTimeout:   *timeout,
		MemoEntries:      *memoEntries,
		MaxAccesses:      *maxAccesses,
		RetryMax:         *retryMax,
		RetryBackoff:     *retryBackoff,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		TraceRequests:    *traceRequests,
		TraceDir:         *traceDir,
		TraceStoreDir:    *traceStoreDir,
		Checkpoints:      ckpt,
		CheckpointEvery:  *checkpointEvery,
		JournalCapacity:  *journalCapacity,
		WatchdogInterval: *watchdogInterval,
		SLO: health.SLOConfig{
			Objective:     *sloObjective,
			LatencyTarget: *sloLatencyTarget,
		},
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "lapserved: smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("lapserved: smoke OK")
		return
	}

	if err := serve(*addr, cfg, *drainTimeout, *pprofOn); err != nil {
		fmt.Fprintf(os.Stderr, "lapserved: %v\n", err)
		os.Exit(1)
	}
}

// serve listens on addr and blocks until SIGINT/SIGTERM, then drains.
func serve(addr string, cfg server.Config, drainTimeout time.Duration, pprofOn bool) error {
	// Structured request logging: one JSON line per request on stderr,
	// each carrying the trace_id/span_id that GET /v1/trace/{id} resolves.
	cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	s := server.New(cfg)
	// Process-level failure sources join the server's event stream: every
	// armed fault hit and every contained worker panic becomes a journal
	// event (Emit on a disabled journal is a no-op, so the wiring is
	// unconditional).
	j := s.Journal()
	fault.SetObserver(func(point, key, mode string, hit uint64) {
		j.Emit(journal.Event{Kind: "fault.inject", Run: key,
			Fields: journal.F("point", point, "mode", mode, "hit", hit)})
	})
	pool.SetPanicObserver(func(key string, v any) {
		j.Emit(journal.Event{Kind: "pool.panic", Run: key,
			Msg: fmt.Sprint(v)})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	handler := s.Handler()
	if pprofOn {
		// The pprof import registered on DefaultServeMux; route only its
		// prefix there so nothing else ever reaches the default mux.
		root := http.NewServeMux()
		root.Handle("/debug/pprof/", http.DefaultServeMux)
		root.Handle("/", handler)
		handler = root
		fmt.Println("lapserved: pprof enabled on /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("lapserved: listening on %s (jobs=%d queue=%d)\n",
		ln.Addr(), cfg.Jobs, cfg.QueueDepth)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: advertise unready first so balancers stop routing here, then
	// close event subscribers (each delivers its queued events and ends —
	// an open SSE stream must not hold Shutdown open), then let in-flight
	// requests finish.
	fmt.Println("lapserved: draining")
	s.SetDraining(true)
	s.Close()
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("lapserved: stopped")
	return nil
}

// runSmoke boots a loopback instance and walks the coalescing contract
// end to end.
func runSmoke(cfg server.Config) error {
	s := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("lapserved: smoke instance on %s\n", base)

	client := &http.Client{Timeout: time.Minute}

	// 1. Liveness and readiness both green on a fresh instance.
	if err := servertest.ExpectStatus(client, http.MethodGet, base+"/healthz", nil, http.StatusOK); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if err := servertest.ExpectStatus(client, http.MethodGet, base+"/readyz", nil, http.StatusOK); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}

	// 2. One real simulation.
	run := []byte(`{"mix":"WH1","policy":"LAP","accesses":20000}`)
	body, err := servertest.PostJSON(client, base+"/v1/run", run)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	var res struct {
		Workload string  `json:"workload"`
		MPKI     float64 `json:"mpki"`
		Cycles   uint64  `json:"cycles"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("run result: %w", err)
	}
	if res.Cycles == 0 {
		return fmt.Errorf("run produced no cycles: %s", body)
	}
	fmt.Printf("lapserved: smoke run %s: MPKI %.3f in %d cycles\n", res.Workload, res.MPKI, res.Cycles)

	stats, err := getStats(client, base)
	if err != nil {
		return err
	}
	recalledBefore := stats.Recalled

	// 3. A concurrent duplicate pair must coalesce: fire two identical
	// requests and require the recalled counter to advance while the
	// computed counter shows exactly one simulation for this key. The
	// first run above already cached the key, so both duplicates recall.
	errs := make(chan error, 2)
	resp := make(chan []byte, 2)
	for i := 0; i < 2; i++ {
		go func() {
			b, err := servertest.PostJSON(client, base+"/v1/run", run)
			errs <- err
			resp <- b
		}()
	}
	var pair [][]byte
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("duplicate run: %w", err)
		}
		pair = append(pair, <-resp)
	}
	if !bytes.Equal(pair[0], pair[1]) || !bytes.Equal(pair[0], body) {
		return fmt.Errorf("duplicate responses diverged")
	}

	stats, err = getStats(client, base)
	if err != nil {
		return err
	}
	if stats.Recalled < recalledBefore+2 {
		return fmt.Errorf("coalescing failed: recalled %d -> %d (want +2)", recalledBefore, stats.Recalled)
	}
	if stats.Computed != 1 {
		return fmt.Errorf("duplicate requests recomputed: computed=%d, want 1", stats.Computed)
	}
	fmt.Printf("lapserved: smoke coalescing OK (computed=%d recalled=%d)\n", stats.Computed, stats.Recalled)

	// 4. The metrics endpoint serves a valid exposition that agrees with
	// what just happened: one computed run, recalled duplicates, a quiet
	// breaker.
	if err := smokeMetrics(client, base); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}

	// 5. The run lifecycle landed in the event journal (stats carries the
	// journal counters), and the diagnostics bundle downloads as gzip.
	stats, err = getStats(client, base)
	if err != nil {
		return err
	}
	if stats.Events == nil || stats.Events.Emitted == 0 {
		return fmt.Errorf("journal recorded no events after %d runs", stats.Computed+stats.Recalled)
	}
	bresp, err := client.Get(base + "/debug/bundle")
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	raw, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil || bresp.StatusCode != http.StatusOK {
		return fmt.Errorf("bundle: status %d (%v)", bresp.StatusCode, err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		return fmt.Errorf("bundle is not gzip (%d bytes)", len(raw))
	}
	fmt.Printf("lapserved: smoke events OK (%d emitted), bundle OK (%d bytes)\n",
		stats.Events.Emitted, len(raw))

	// 6. A misspelt config key is refused with a 400 that names it,
	// never silently dropped (which would run the default machine).
	const typo = "PrefetchDegre"
	cresp, err := client.Post(base+"/v1/run", "application/json",
		strings.NewReader(`{"mix":"WH1","accesses":20000,"config":{"`+typo+`":1000}}`))
	if err != nil {
		return fmt.Errorf("misspelt config: %w", err)
	}
	var fe struct {
		Field string `json:"field"`
	}
	derr := json.NewDecoder(cresp.Body).Decode(&fe)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusBadRequest || derr != nil || fe.Field != typo {
		return fmt.Errorf("misspelt config key: status %d, field %q (%v); want 400 naming %q",
			cresp.StatusCode, fe.Field, derr, typo)
	}
	fmt.Printf("lapserved: smoke misspelt config key refused (400, field %s)\n", fe.Field)
	return nil
}

// smokeMetrics scrapes /metrics and validates the exposition end to end:
// format (via parseExposition), presence of the load-bearing series, and
// the computed-vs-recalled histogram split matching the smoke traffic.
func smokeMetrics(c *http.Client, base string) error {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("content type %q, want text exposition v0.0.4", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	exp, err := parseExposition(string(raw))
	if err != nil {
		return fmt.Errorf("invalid exposition: %w", err)
	}

	for series, typ := range map[string]string{
		"lapserved_breaker_state":             "gauge",
		"lapserved_queue_depth":               "gauge",
		"lapserved_queue_limit":               "gauge",
		"lapserved_inflight_runs":             "gauge",
		"lapserved_trace_store_entries":       "gauge",
		"lapserved_breaker_shed_total":        "counter",
		"lapserved_admit_rejected_total":      "counter",
		"lapserved_runs_failed_total":         "counter",
		"lapserved_memo_computed_total":       "counter",
		"lapserved_memo_recalled_total":       "counter",
		"lapserved_breaker_transitions_total": "counter",
		"lapserved_retry_attempts_total":      "counter",
		"lapserved_run_duration_seconds":      "histogram",
		"lapserved_queue_wait_seconds":        "histogram",
		"lapserved_slo_burn_rate":             "gauge",
		"lapserved_slo_requests_total":        "counter",
		"lapserved_watchdog_healthy":          "gauge",
		"lapserved_events_emitted_total":      "counter",
		"lapserved_event_subscribers":         "gauge",
		"go_goroutines":                       "gauge",
		"go_gc_pause_seconds":                 "histogram",
		"process_open_fds":                    "gauge",
		"lapsim_accesses_per_second":          "gauge",
		"lapsim_bank_ops_total":               "counter",
	} {
		if got := exp.types[series]; got != typ {
			return fmt.Errorf("family %s: type %q, want %q", series, got, typ)
		}
	}
	for _, series := range []string{
		`lapserved_breaker_transitions_total{to="open"}`,
		`lapserved_retry_attempts_total{outcome="success"}`,
		`lapserved_retry_attempts_total{outcome="failure"}`,
		`lapserved_run_duration_seconds_count{source="computed"}`,
		`lapserved_run_duration_seconds_count{source="recalled"}`,
		"lapserved_queue_wait_seconds_count",
		`lapserved_slo_burn_rate{slo="availability",window="5m0s"}`,
		`lapserved_slo_burn_rate{slo="latency",window="5m0s"}`,
		`lapserved_watchdog_healthy{subsystem="queue"}`,
		`lapserved_watchdog_healthy{subsystem="breaker"}`,
	} {
		if _, ok := exp.samples[series]; !ok {
			return fmt.Errorf("series %s missing", series)
		}
	}

	// The smoke traffic so far: exactly one computed simulation, at least
	// two recalled duplicates, no breaker activity.
	if got := exp.samples[`lapserved_run_duration_seconds_count{source="computed"}`]; got != 1 {
		return fmt.Errorf("computed latency count = %v, want 1", got)
	}
	if got := exp.samples[`lapserved_run_duration_seconds_count{source="recalled"}`]; got < 2 {
		return fmt.Errorf("recalled latency count = %v, want >= 2", got)
	}
	if got := exp.samples["lapserved_breaker_state"]; got != 0 {
		return fmt.Errorf("breaker state = %v, want 0 (closed)", got)
	}
	// Queue wait is observed only on the compute path (the memo fast path
	// never queues), so the single computed run above contributes exactly
	// the admission→worker-start sample we expect — and it must be a
	// different series from run duration.
	if got := exp.samples["lapserved_queue_wait_seconds_count"]; got < 1 {
		return fmt.Errorf("queue wait count = %v, want >= 1", got)
	}
	// The computed run must have fed the simulator-throughput series: a
	// positive access rate and one bank-ops sample per LLC timing bank.
	if got := exp.samples["lapsim_accesses_per_second"]; got <= 0 {
		return fmt.Errorf("accesses per second = %v, want > 0", got)
	}
	if got, want := exp.samples[`lapsim_bank_ops_total{bank="0"}`], 0.0; got <= want {
		return fmt.Errorf("bank 0 ops = %v, want > 0", got)
	}
	// Every smoke request was observed by the SLO tracker, none of it
	// burned budget, and the journal recorded the run lifecycle.
	if got := exp.samples["lapserved_slo_requests_total"]; got < 3 {
		return fmt.Errorf("slo requests = %v, want >= 3", got)
	}
	if got := exp.samples["lapserved_slo_request_errors_total"]; got != 0 {
		return fmt.Errorf("slo errors = %v, want 0", got)
	}
	if got := exp.samples["lapserved_events_emitted_total"]; got <= 0 {
		return fmt.Errorf("events emitted = %v, want > 0", got)
	}
	fmt.Printf("lapserved: smoke metrics OK (%d series, computed/recalled split verified)\n", len(exp.samples))
	return nil
}

func getStats(c *http.Client, base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	err := servertest.GetJSON(c, base+"/v1/stats", &st)
	return st, err
}
