// Command obssmoke is the observability integration gate (`make
// obs-smoke`). It boots an in-process lapserved instance and walks the
// whole operational surface end to end:
//
//  1. subscribes to GET /v1/events, then runs a sweep and asserts the
//     event stream tells the story in order — sweep.start, then each
//     cell's run.start / interval telemetry / run.finish, then
//     sweep.finish — with strictly increasing sequence numbers;
//  2. reconnects with Last-Event-ID mid-stream and requires the replay
//     to resume strictly after the cut, still monotone;
//  3. re-runs the identical sweep on a fresh, never-subscribed instance
//     and requires byte-identical output — streaming must observe, not
//     steer;
//  4. drains the instance and requires /readyz to flip 503 while
//     /healthz stays 200 (and back once drain is lifted);
//  5. downloads /debug/bundle and validates every member: JSON members
//     parse, the metrics exposition carries TYPE lines, events.jsonl is
//     valid JSONL, pprof profiles carry the gzip magic.
//
// It exits non-zero on the first violation, making it a one-command
// regression gate for the event journal, SSE endpoint, readiness split,
// and diagnostics bundle.
package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs/journal"
	"repro/internal/server"
	"repro/internal/servertest"
)

const sweepBody = `{"mixes":["WH1"],"policies":["LAP","non-inclusive"],"accesses":20000,"jobs":2}`

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "obssmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: OK")
}

func run() error {
	cfg := server.Config{Jobs: 2}
	s, base, shutdown, err := boot(cfg)
	if err != nil {
		return err
	}
	defer shutdown()
	fmt.Printf("obssmoke: instance on %s\n", base)
	client := &http.Client{Timeout: time.Minute}

	// 1. Subscribe first, then sweep: the stream must narrate the run.
	sub, err := openStream(base+"/v1/events", "")
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	defer sub.close()
	if err := waitSubscribers(client, base, 1); err != nil {
		return err
	}

	sweepOut, err := servertest.PostJSON(client, base+"/v1/sweep", []byte(sweepBody))
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	var sweep server.SweepResponse
	if err := json.Unmarshal(sweepOut, &sweep); err != nil {
		return fmt.Errorf("sweep response: %w", err)
	}
	if sweep.Failed != 0 || sweep.Cancelled != 0 || len(sweep.Results) != 2 {
		return fmt.Errorf("sweep: %d results, %d failed, %d cancelled (want 2/0/0)",
			len(sweep.Results), sweep.Failed, sweep.Cancelled)
	}

	frames, err := sub.collectUntil("sweep.finish", 30*time.Second)
	if err != nil {
		return fmt.Errorf("reading event stream: %w", err)
	}
	cut, err := checkStory(frames, len(sweep.Results))
	if err != nil {
		return err
	}
	fmt.Printf("obssmoke: event story OK (%d frames)\n", len(frames))

	// 2. Reconnect mid-stream: replay resumes strictly after the cut.
	sub2, err := openStream(base+"/v1/events", strconv.FormatUint(cut, 10))
	if err != nil {
		return fmt.Errorf("reconnect: %w", err)
	}
	defer sub2.close()
	replay, err := sub2.collectUntil("sweep.finish", 10*time.Second)
	if err != nil {
		return fmt.Errorf("reading replay: %w", err)
	}
	if len(replay) == 0 {
		return fmt.Errorf("replay from seq %d yielded nothing", cut)
	}
	last := cut
	for _, f := range replay {
		if f.seq <= last {
			return fmt.Errorf("replay seq %d not strictly after %d", f.seq, last)
		}
		last = f.seq
	}
	fmt.Printf("obssmoke: replay OK (%d frames after seq %d)\n", len(replay), cut)

	// 3. Streaming observes, never steers: the identical sweep on a fresh
	// instance with no subscriber must produce byte-identical output.
	_, quietBase, quietShutdown, err := boot(cfg)
	if err != nil {
		return err
	}
	defer quietShutdown()
	quietOut, err := servertest.PostJSON(client, quietBase+"/v1/sweep", []byte(sweepBody))
	if err != nil {
		return fmt.Errorf("unsubscribed sweep: %w", err)
	}
	if !bytes.Equal(sweepOut, quietOut) {
		return fmt.Errorf("sweep output diverges with a subscriber attached (%d vs %d bytes)",
			len(sweepOut), len(quietOut))
	}
	fmt.Println("obssmoke: byte-identity OK (subscribed == unsubscribed sweep)")

	// 4. Drain flips readiness, not liveness.
	if err := servertest.ExpectStatus(client, http.MethodGet, base+"/readyz", nil, http.StatusOK); err != nil {
		return fmt.Errorf("readyz before drain: %w", err)
	}
	s.SetDraining(true)
	if err := servertest.ExpectStatus(client, http.MethodGet, base+"/readyz", nil, http.StatusServiceUnavailable); err != nil {
		return fmt.Errorf("readyz during drain: %w", err)
	}
	if err := servertest.ExpectStatus(client, http.MethodGet, base+"/healthz", nil, http.StatusOK); err != nil {
		return fmt.Errorf("healthz during drain: %w", err)
	}
	s.SetDraining(false)
	if err := servertest.ExpectStatus(client, http.MethodGet, base+"/readyz", nil, http.StatusOK); err != nil {
		return fmt.Errorf("readyz after drain lifted: %w", err)
	}
	fmt.Println("obssmoke: readiness split OK (readyz flips, healthz steady)")

	// 5. The diagnostics bundle holds together member by member.
	if err := checkBundle(client, base); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	return nil
}

// boot starts one in-process lapserved on a loopback port.
func boot(cfg server.Config) (*server.Server, string, func(), error) {
	s := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	shutdown := func() {
		s.Close()
		hs.Close()
	}
	return s, "http://" + ln.Addr().String(), shutdown, nil
}

// checkStory validates the subscribed sweep's event sequence: kinds in
// causal order, per-run lifecycle complete, sequence numbers strictly
// increasing. It returns a mid-stream sequence number to reconnect from.
func checkStory(frames []frame, cells int) (uint64, error) {
	var lastSeq uint64
	firstSeen := map[string]int{}
	counts := map[string]int{}
	for i, f := range frames {
		if f.seq <= lastSeq {
			return 0, fmt.Errorf("frame %d: seq %d not strictly increasing (after %d)", i, f.seq, lastSeq)
		}
		lastSeq = f.seq
		if _, ok := firstSeen[f.kind]; !ok {
			firstSeen[f.kind] = i
		}
		counts[f.kind]++
		var e journal.Event
		if err := json.Unmarshal(f.data, &e); err != nil {
			return 0, fmt.Errorf("frame %d (%s) does not parse as a journal event: %w", i, f.kind, err)
		}
		if e.Seq != f.seq || e.Kind != f.kind {
			return 0, fmt.Errorf("frame %d: SSE id/event %d/%s disagree with payload %d/%s",
				i, f.seq, f.kind, e.Seq, e.Kind)
		}
	}
	for _, want := range []string{"sweep.start", "run.start", "interval", "run.finish", "sweep.finish"} {
		if counts[want] == 0 {
			return 0, fmt.Errorf("stream never carried a %q event (saw %v)", want, counts)
		}
	}
	if counts["run.finish"] != cells {
		return 0, fmt.Errorf("run.finish count = %d, want %d (one per cell)", counts["run.finish"], cells)
	}
	// Causal order: the sweep opens before any run starts, runs start
	// before telemetry flows, and the sweep closes last.
	order := []string{"sweep.start", "run.start", "interval"}
	for i := 1; i < len(order); i++ {
		if firstSeen[order[i-1]] >= firstSeen[order[i]] {
			return 0, fmt.Errorf("%s (frame %d) does not precede %s (frame %d)",
				order[i-1], firstSeen[order[i-1]], order[i], firstSeen[order[i]])
		}
	}
	if fin := firstSeen["sweep.finish"]; fin != len(frames)-1 {
		return 0, fmt.Errorf("sweep.finish at frame %d, want last (%d)", fin, len(frames)-1)
	}
	// Reconnect from the middle of the story.
	return frames[len(frames)/2].seq, nil
}

// checkBundle downloads /debug/bundle and validates every member.
func checkBundle(c *http.Client, base string) error {
	resp, err := c.Get(base + "/debug/bundle")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		return fmt.Errorf("not gzip: %w", err)
	}
	tr := tar.NewReader(gz)
	members := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading tar: %w", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return fmt.Errorf("reading %s: %w", hdr.Name, err)
		}
		members[hdr.Name] = data
	}
	for _, want := range []string{
		"meta.json", "config.json", "stats.json", "metrics.prom",
		"events.jsonl", "goroutine.pprof", "heap.pprof",
	} {
		if _, ok := members[want]; !ok {
			return fmt.Errorf("member %s missing", want)
		}
	}
	for name, data := range members {
		switch {
		case strings.HasSuffix(name, ".json"):
			var v any
			if err := json.Unmarshal(data, &v); err != nil {
				return fmt.Errorf("%s does not parse: %w", name, err)
			}
		case strings.HasSuffix(name, ".jsonl"):
			for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				if line == "" {
					continue
				}
				var e journal.Event
				if err := json.Unmarshal([]byte(line), &e); err != nil {
					return fmt.Errorf("%s line does not parse: %w", name, err)
				}
			}
		case strings.HasSuffix(name, ".pprof"):
			if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
				return fmt.Errorf("%s lacks the gzip magic (pprof profiles are gzipped protobuf)", name)
			}
		case name == "metrics.prom":
			if !strings.Contains(string(data), "# TYPE") {
				return fmt.Errorf("metrics.prom carries no TYPE lines")
			}
		}
	}
	fmt.Printf("obssmoke: bundle OK (%d members, all parse)\n", len(members))
	return nil
}

// ---- SSE client ----

type frame struct {
	seq  uint64
	kind string
	data []byte
}

type stream struct {
	resp *http.Response
	rd   *bufio.Reader
}

func openStream(url, lastEventID string) (*stream, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %d %s", url, resp.StatusCode, body)
	}
	return &stream{resp: resp, rd: bufio.NewReader(resp.Body)}, nil
}

func (st *stream) close() { st.resp.Body.Close() }

// collectUntil reads frames (skipping comments) until one of kind
// arrives, inclusive, or the deadline passes.
func (st *stream) collectUntil(kind string, timeout time.Duration) ([]frame, error) {
	timer := time.AfterFunc(timeout, func() { st.resp.Body.Close() })
	defer timer.Stop()
	var frames []frame
	var f frame
	seen := false
	for {
		line, err := st.rd.ReadString('\n')
		if err != nil {
			return frames, fmt.Errorf("stream ended before %s: %w", kind, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if seen {
				frames = append(frames, f)
				if f.kind == kind {
					return frames, nil
				}
				f, seen = frame{}, false
			}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			n, perr := strconv.ParseUint(line[4:], 10, 64)
			if perr != nil {
				return frames, fmt.Errorf("bad id line %q", line)
			}
			f.seq, seen = n, true
		case strings.HasPrefix(line, "event: "):
			f.kind, seen = line[7:], true
		case strings.HasPrefix(line, "data: "):
			f.data, seen = []byte(line[6:]), true
		}
	}
}

// ---- HTTP helpers ----

func waitSubscribers(c *http.Client, base string, n int) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var st server.StatsResponse
		if err := servertest.GetJSON(c, base+"/v1/stats", &st); err != nil {
			return err
		}
		if st.Events != nil && st.Events.Subscribers >= n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("journal never reached %d subscribers", n)
}
