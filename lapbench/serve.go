package main

// serve-mix: an in-process lapserved with the server.Config its default
// flags build (request tracing and the journal on, Jobs = NumCPU), driven
// over loopback HTTP by two closed-loop clients, each on one keep-alive
// connection, in three phases:
//
//  1. uploads: POST /v1/traces of benchmark-generated binary traces;
//  2. cold runs: POST /v1/run with fresh seeds, every fifth request a small
//     POST /v1/sweep grid;
//  3. recalled runs: POST /v1/run repeating phase 2's run requests.
//
// Recalled requests run no simulation, so a simulator gain must not move
// them while a server, memo or encoding change shows only there. They get
// their own phase because on two CPUs recalls mixed with live simulations
// would measure the Go scheduler. Requests set no mode, so every run is
// exact.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	lap "repro"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// lapservedConfig is the server.Config cmd/lapserved builds from its
// default flags. The request log keeps its JSON encoding but is discarded.
func lapservedConfig() server.Config {
	return server.Config{
		Jobs:             runtime.NumCPU(),
		QueueDepth:       256,
		RequestTimeout:   2 * time.Minute,
		MemoEntries:      4096,
		MaxAccesses:      4_000_000,
		RetryMax:         2,
		RetryBackoff:     50 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
		WatchdogInterval: 15 * time.Second,
		Logger:           slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}
}

// liveServer is one booted in-process lapserved.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// bootServer starts a server on a loopback port and returns once GET
// /readyz answers 200.
func bootServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(lapservedConfig())
	ls := &liveServer{
		srv:  s,
		hs:   &http.Server{Handler: s.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln)
	}()
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(ls.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Now().After(deadline) {
			ls.close()
			return nil, fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains and stops the server, waiting for its goroutines.
func (ls *liveServer) close() {
	ls.srv.SetDraining(true)
	ls.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.done
}

// newClient returns a client holding at most one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// exchange is one request and its response.
type exchange struct {
	kind    string // "upload", "run", "sweep" or "recalled"
	path    string
	body    []byte
	status  int
	resp    []byte
	traceID string
	latency time.Duration
	// expect is the body the response must equal; for runs and sweeps it
	// is filled in after the phases from in-process lap.Run results.
	expect []byte
	// spans holds the request's server spans (traced pass only).
	spans []span
	// matched records a recalled exchange's check, made as it completes so
	// that the thousands of recalled bodies need not be kept.
	matched bool
}

func do(c *http.Client, base string, ex *exchange) error {
	t0 := time.Now()
	resp, err := c.Post(base+ex.path, "application/octet-stream", bytes.NewReader(ex.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.latency = time.Since(t0)
	if err != nil {
		return err
	}
	ex.status, ex.resp, ex.traceID = resp.StatusCode, body, resp.Header.Get("X-Trace-Id")
	return nil
}

// span is one server span from GET /v1/trace/{id}, in microseconds.
type span struct {
	name   string
	dur    float64
	id     uint64
	parent uint64
}

func fetchSpans(c *http.Client, base, id string) ([]span, error) {
	resp, err := c.Get(base + "/v1/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/trace/%s: status %d", id, resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				SpanID   uint64 `json:"span_id"`
				ParentID uint64 `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			out = append(out, span{name: ev.Name, dur: ev.Dur, id: ev.Args.SpanID, parent: ev.Args.ParentID})
		}
	}
	return out, nil
}

// traceUpload encodes n accesses of one benchmark surrogate in the binary
// trace format.
func traceUpload(bench string, seed uint64, n int) ([]byte, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := trace.WriteAll(&buf, trace.Limit(workload.New(b, seed), uint64(n))); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// uploadExpect is the response lapserved owes an upload: the record count
// and the FNV-1a digest of the records, which are the upload's bytes after
// the 8-byte magic.
func uploadExpect(name string, data []byte) []byte {
	h := fnv.New64a()
	h.Write(data[8:])
	body, _ := json.Marshal(server.TraceUploadResponse{
		Name: name, Records: uint64(len(data)-8) / 11, Digest: fmt.Sprintf("%016x", h.Sum64()),
	})
	return append(body, '\n')
}

// minColdPerClient is the least number of cold requests each client
// sends, whatever the time budget: enough that the two clients' runs
// support the traced run's 90th percentiles.
const minColdPerClient = 64

var (
	servePolicies = []string{"LAP", "non-inclusive", "exclusive"}
	serveMixes    = []string{"WL1", "WH1"}
	uploadBenches = []string{"mcf", "lbm", "astar", "bzip2", "omnetpp", "libquantum", "milc", "xalancbmk"}
)

// servePhases is one pass of the three phases against ls. With traced set,
// each client fetches the server's spans of every request after timing it.
type servePhases struct {
	uploads  []*exchange
	cold     []*exchange // runs and sweeps, in the order each client sent them
	recalled []*exchange
	wall     time.Duration // the three phases' wall time
}

func runPhases(p params, ls *liveServer, traces [][]byte, traced bool) (*servePhases, error) {
	clients := [2]*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	out := &servePhases{}
	var mu sync.Mutex
	var firstErr error
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// phase runs one closed loop per client until next returns nil.
	phase := func(next func(client, k int) *exchange, sink *[]*exchange) {
		var wg sync.WaitGroup
		per := [2][]*exchange{}
		for ci := range clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for k := 0; ; k++ {
					ex := next(ci, k)
					if ex == nil {
						return
					}
					if err := do(clients[ci], ls.base, ex); err != nil {
						record(fmt.Errorf("%s %s: %w", ex.kind, ex.path, err))
						return
					}
					if traced && ex.traceID != "" {
						spans, err := fetchSpans(clients[ci], ls.base, ex.traceID)
						if err != nil {
							record(err)
							return
						}
						ex.spans = spans
					}
					if ex.kind == "recalled" {
						ex.matched = ex.status == http.StatusOK && bytes.Equal(ex.resp, ex.expect)
						ex.body, ex.resp, ex.expect = nil, nil, nil
					}
					per[ci] = append(per[ci], ex)
				}
			}(ci)
		}
		wg.Wait()
		*sink = append(*sink, per[0]...)
		*sink = append(*sink, per[1]...)
	}

	start := time.Now()
	perClient := p.size.uploads / 2
	phase(func(ci, k int) *exchange {
		if k >= perClient {
			return nil
		}
		i := (ci + 2*k) % len(traces)
		name := "t" + strconv.Itoa(i)
		return &exchange{kind: "upload", path: "/v1/traces?name=" + name, body: traces[i],
			expect: uploadExpect(name, traces[i])}
	}, &out.uploads)

	coldEnd := time.Now().Add(p.seconds * 55 / 100)
	phase(func(ci, k int) *exchange {
		if k >= minColdPerClient && time.Now().After(coldEnd) {
			return nil
		}
		seed := 1 + p.seed*1_000_000 + uint64(ci)*500_000 + uint64(k)
		if k%5 == 4 {
			body, _ := json.Marshal(server.SweepRequest{
				Mixes: []string{serveMixes[(k/5)%2]}, Policies: []string{"non-inclusive", "LAP"},
				Accesses: p.size.sweepAccesses, Seed: seed, Jobs: 2,
			})
			return &exchange{kind: "sweep", path: "/v1/sweep", body: body}
		}
		body, _ := json.Marshal(server.RunRequest{
			Mix: serveMixes[k%2], Policy: servePolicies[k%3], Accesses: p.size.coldAccesses, Seed: seed,
		})
		return &exchange{kind: "run", path: "/v1/run", body: body}
	}, &out.cold)

	var runs [2][]*exchange
	j := 0
	for _, ex := range out.cold {
		if ex.kind == "run" {
			runs[j%2] = append(runs[j%2], ex)
			j++
		}
	}
	recalledEnd := time.Now().Add(p.seconds * 30 / 100)
	phase(func(ci, k int) *exchange {
		if time.Now().After(recalledEnd) || len(runs[ci]) == 0 {
			return nil
		}
		src := runs[ci][k%len(runs[ci])]
		return &exchange{kind: "recalled", path: src.path, body: src.body, expect: src.resp}
	}, &out.recalled)
	out.wall = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// expectRun is the body lapserved owes a run request: the in-process
// lap.Run result shaped as the API shapes it.
func expectRun(req server.RunRequest) ([]byte, error) {
	var mix lap.Mix
	found := false
	for _, m := range lap.TableIII() {
		if m.Name == req.Mix {
			mix, found = m, true
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown mix %q", req.Mix)
	}
	rr, err := expectCell(req.Policy, mix, req.Accesses, req.Seed)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(rr)
	return append(body, '\n'), err
}

func expectCell(policy string, mix lap.Mix, accesses, seed uint64) (server.RunResult, error) {
	cfg := lap.DefaultConfig()
	pol, err := lap.ValidatePolicy(cfg, lap.Policy(policy))
	if err != nil {
		return server.RunResult{}, err
	}
	r, err := lap.Run(cfg, pol, mix, accesses, seed)
	if err != nil {
		return server.RunResult{}, err
	}
	return server.RunResult{
		Policy:       string(pol),
		Workload:     "mix:" + mix.Name + "[" + strings.Join(mix.Members, ",") + "]",
		Accesses:     accesses,
		Seed:         seed,
		MPKI:         r.MPKI(),
		Throughput:   r.Throughput,
		Cycles:       r.Cycles,
		EPIStaticNJ:  r.EPI.StaticNJPerInstr,
		EPIDynamicNJ: r.EPI.DynamicNJPerInstr,
		EPITotalNJ:   r.EPI.Total(),
		TotalNJ:      r.TotalNJ,
		IPCs:         r.IPCs,
	}, nil
}

func expectSweep(req server.SweepRequest) ([]byte, error) {
	var resp server.SweepResponse
	for _, name := range req.Mixes {
		mix, err := tableIIIMix(name)
		if err != nil {
			return nil, err
		}
		for _, pol := range req.Policies {
			rr, err := expectCell(pol, mix, req.Accesses, req.Seed)
			if err != nil {
				return nil, err
			}
			resp.Results = append(resp.Results, rr)
		}
	}
	body, err := json.Marshal(resp)
	return append(body, '\n'), err
}

// fillExpected computes every cold request's expected body in process, on
// NumCPU goroutines.
func fillExpected(cold []*exchange) error {
	jobs := make(chan *exchange)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ex := range jobs {
				var body []byte
				var err error
				if ex.kind == "sweep" {
					var req server.SweepRequest
					if err = json.Unmarshal(ex.body, &req); err == nil {
						body, err = expectSweep(req)
					}
				} else {
					var req server.RunRequest
					if err = json.Unmarshal(ex.body, &req); err == nil {
						body, err = expectRun(req)
					}
				}
				mu.Lock()
				ex.expect = body
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, ex := range cold {
		jobs <- ex
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// checkExchanges counts every exchange as one operation, failed unless it
// answered 200 with the expected body.
func checkExchanges(p params, rep *report, ph *servePhases) {
	all := append(append(append([]*exchange(nil), ph.uploads...), ph.cold...), ph.recalled...)
	for i, ex := range all {
		want := ex.expect
		if p.mutateExpected && i == len(ph.uploads) {
			want = append([]byte(nil), want...)
			want[len(want)/2] ^= 1
		}
		switch {
		case ex.kind == "recalled" && !ex.matched:
			rep.fail("recalled %s: status %d or body differs from the cold run's", ex.path, ex.status)
		case ex.kind == "recalled":
			rep.ok()
		case ex.status != http.StatusOK:
			rep.fail("%s %s: status %d: %s", ex.kind, ex.path, ex.status, bytes.TrimSpace(ex.resp))
		case !bytes.Equal(ex.resp, want):
			rep.fail("%s %s %s: body differs from the in-process result", ex.kind, ex.path, ex.body)
		default:
			rep.ok()
		}
	}
}

func latencies(exs []*exchange, kind string, unit time.Duration) []float64 {
	var out []float64
	for _, ex := range exs {
		if ex.kind == kind {
			out = append(out, float64(ex.latency)/float64(unit))
		}
	}
	return out
}

// makeTraces encodes the upload phase's traces, one per benchmark.
func makeTraces(p params) ([][]byte, error) {
	var traces [][]byte
	for i, b := range uploadBenches {
		data, err := traceUpload(b, p.seed+uint64(i), p.size.traceRecords)
		if err != nil {
			return nil, err
		}
		traces = append(traces, data)
	}
	return traces, nil
}

func runServeMix(p params) (*report, error) {
	rep := newReport()
	type state struct {
		ls     *liveServer
		traces [][]byte
	}
	var prev *liveServer
	defer func() {
		if prev != nil {
			prev.close()
		}
	}()
	st, setup, err := measureSetup(p.size.setupReps, func() (state, error) {
		if prev != nil {
			prev.close()
			prev = nil
		}
		traces, err := makeTraces(p)
		if err != nil {
			return state{}, err
		}
		if err := warmUp(p); err != nil {
			return state{}, err
		}
		ls, err := bootServer()
		if err != nil {
			return state{}, err
		}
		prev = ls
		return state{ls: ls, traces: traces}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", "s", setup)

	ph, err := runPhases(p, st.ls, st.traces, false)
	if err != nil {
		return nil, err
	}
	if err := fillExpected(ph.cold); err != nil {
		return nil, err
	}
	checkExchanges(p, rep, ph)

	// The operation is one request of the mix, of any phase.
	var lat []time.Duration
	for _, exs := range [][]*exchange{ph.uploads, ph.cold, ph.recalled} {
		for _, ex := range exs {
			lat = append(lat, ex.latency)
		}
	}
	fmt.Printf("requests upload %d cold %d recalled %d\n", len(ph.uploads), len(ph.cold), len(ph.recalled))
	rep.setOps(lat, ph.wall)
	return rep, nil
}

// setTail reports the q-quantile of xs, and fails unless at least ten
// samples lie beyond it.
func setTail(rep *report, name, unit string, xs []float64, q float64) error {
	if len(xs) == 0 || (q > 0.5 && !tailSupported(len(xs), q)) {
		return fmt.Errorf("%s: %d samples leave fewer than ten beyond it", name, len(xs))
	}
	rep.set(name, unit, quantile(xs, q))
	fmt.Printf("samples %s %d\n", name, len(xs))
	return nil
}

// serveLayers is serve-mix's layer probe: the untraced phases on one
// server, then the same phases on a fresh server with every request's
// server spans fetched after it is timed. Queue wait and execute come from
// the cold runs' spans; memo peek, handler self time and transport from
// the recalled runs'; admission and recall counters from /metrics and
// /v1/stats; trace decoding is timed standalone over the uploaded bytes.
func serveLayers(p params, rep *report) (float64, error) {
	traces, err := makeTraces(p)
	if err != nil {
		return 0, err
	}
	ls, err := bootServer()
	if err != nil {
		return 0, err
	}
	plain, err := runPhases(p, ls, traces, false)
	ls.close()
	if err != nil {
		return 0, err
	}
	if ls, err = bootServer(); err != nil {
		return 0, err
	}
	defer ls.close()
	ph, err := runPhases(p, ls, traces, true)
	if err != nil {
		return 0, err
	}
	if err := fillExpected(ph.cold); err != nil {
		return 0, err
	}
	checkExchanges(p, rep, ph)
	// Server-side tracing is on in both passes (lapserved's default); the
	// traced pass adds the span fetches, whose cost shows on recalls.
	recalledP50 := func(ph *servePhases) float64 {
		return median(latencies(ph.recalled, "recalled", time.Microsecond))
	}
	overhead := recalledP50(ph)/recalledP50(plain) - 1

	var queue, execute, peek, self, transport []float64
	for _, ex := range ph.cold {
		if ex.kind != "run" {
			continue
		}
		for _, s := range ex.spans {
			switch s.name {
			case "queue_wait":
				queue = append(queue, s.dur/1000)
			case "execute":
				execute = append(execute, s.dur/1000)
			}
		}
	}
	for _, ex := range ph.recalled {
		var root *span
		children := 0.0
		for i, s := range ex.spans {
			switch {
			case s.name == "request":
				root = &ex.spans[i]
			case s.name == "memo.peek":
				peek = append(peek, s.dur)
			}
		}
		if root == nil {
			return 0, fmt.Errorf("recalled request %s has no request span", ex.traceID)
		}
		for _, s := range ex.spans {
			if s.parent == root.id {
				children += s.dur
			}
		}
		self = append(self, root.dur-children)
		transport = append(transport, float64(ex.latency)/1e3-root.dur)
	}
	if len(queue) == 0 || len(execute) == 0 || len(peek) == 0 {
		return 0, fmt.Errorf("traced phases recorded no queue_wait, execute or memo.peek spans")
	}
	if err := setTail(rep, "server.queue_wait_p50_ms", "ms", queue, 0.5); err != nil {
		return 0, err
	}
	if err := setTail(rep, "server.queue_wait_p90_ms", "ms", queue, 0.9); err != nil {
		return 0, err
	}
	if err := setTail(rep, "server.execute_p50_ms", "ms", execute, 0.5); err != nil {
		return 0, err
	}
	// Span times are whole microseconds, so a mean resolves the peek.
	rep.set("memo.peek_us", "us", sum(peek)/float64(len(peek)))
	if err := setTail(rep, "server.handler_self_us", "us", self, 0.5); err != nil {
		return 0, err
	}
	if err := setTail(rep, "server.transport_us", "us", transport, 0.5); err != nil {
		return 0, err
	}

	rejected, err := scrapeCounter(ls.base+"/metrics", "lapserved_admit_rejected_total")
	if err != nil {
		return 0, err
	}
	rep.set("server.admit_rejected", "count", rejected)
	var stats server.StatsResponse
	if err := getJSON(ls.base+"/v1/stats", &stats); err != nil {
		return 0, err
	}
	rep.set("server.recall_ratio", "ratio", float64(stats.Recalled)/float64(stats.Computed+stats.Recalled))

	var decodeNS time.Duration
	var records uint64
	for rounds := 0; rounds < 5; rounds++ {
		for _, data := range traces {
			t0 := time.Now()
			r, err := trace.NewAutoReader(bytes.NewReader(data))
			if err != nil {
				return 0, err
			}
			accs := trace.Drain(r)
			decodeNS += time.Since(t0)
			if r.Err() != nil {
				return 0, r.Err()
			}
			records += uint64(len(accs))
		}
	}
	rep.set("trace.decode_ns_per_access", "ns", float64(decodeNS)/float64(records))
	return overhead, nil
}

func getJSON(url string, v any) error {
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeCounter reads one unlabelled series from a Prometheus exposition.
func scrapeCounter(url, name string) (float64, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("%s: no series %s", url, name)
}
