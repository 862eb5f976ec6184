// Command resumesmoke is the crash-safe checkpointing gate (`make
// resume-smoke`): it proves that SIGKILL-ing lapserved mid-simulation
// loses at most one checkpoint interval and never changes a result.
//
// The walk:
//
//  1. Reference: boot lapserved WITHOUT checkpointing and run one long
//     simulation to completion. Its response bytes are the ground truth.
//  2. Crash: boot lapserved with -checkpoint-dir on a fresh directory,
//     issue the same run, wait for checkpoint files to appear, and
//     SIGKILL the process mid-run — no drain, no flush, the hard kill a
//     crashed host delivers.
//  3. Resume: restart lapserved on the same directory and re-issue the
//     identical request. The response must be byte-identical to the
//     reference, /v1/stats must report the run warm-started from a
//     stored checkpoint (restores >= 1, intervals saved >= 1), and the
//     /metrics exposition must carry the lap_checkpoint_* series.
//
// Exits non-zero on any failure. Pass -server a prebuilt lapserved
// binary (the Makefile target builds one); everything else defaults.
//
// Usage:
//
//	resumesmoke -server /path/to/lapserved [-accesses 2000000]
//	            [-checkpoint-every 150000] [-timeout 2m]
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/servertest"
)

func main() {
	server := flag.String("server", "", "path to a built lapserved binary (required)")
	accesses := flag.Uint64("accesses", 2_000_000, "per-core trace length for the long run (must outlast the kill window)")
	every := flag.Uint64("checkpoint-every", 150_000, "checkpoint spacing in accesses, summed over cores")
	// The store keeps only the newest checkpoint per run key (older
	// intervals are pruned on write), so "checkpoints exist" means one
	// file whose embedded interval index keeps advancing.
	minInterval := flag.Uint64("min-interval", 3, "checkpoint interval index that must be reached before the kill")
	timeout := flag.Duration("timeout", 2*time.Minute, "bound for each phase")
	flag.Parse()

	if *server == "" {
		fmt.Fprintln(os.Stderr, "resumesmoke: -server is required (a built lapserved binary)")
		os.Exit(2)
	}
	if err := run(*server, *accesses, *every, *minInterval, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "resumesmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("resumesmoke: OK")
}

// reqBody is the one simulation every phase issues; accesses is the only
// moving part.
func reqBody(accesses uint64) []byte {
	return []byte(fmt.Sprintf(`{"mix":"WH1","policy":"LAP","accesses":%d,"seed":7}`, accesses))
}

func run(bin string, accesses, every, minInterval uint64, timeout time.Duration) error {
	work, err := os.MkdirTemp("", "resumesmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ckDir := filepath.Join(work, "checkpoints")
	client := &http.Client{Timeout: timeout}

	// Phase 1: the uninterrupted, checkpoint-free reference.
	ref, err := withServer(bin, nil, timeout, func(base string) ([]byte, error) {
		fmt.Println("resumesmoke: [1/3] reference run (no checkpointing)")
		return servertest.PostJSON(client, base+"/v1/run", reqBody(accesses))
	})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	// Phase 2: the same run under checkpointing, killed mid-flight with
	// SIGKILL — the one signal no defer or flush survives.
	ckArgs := []string{"-checkpoint-dir", ckDir, "-checkpoint-every", fmt.Sprint(every)}
	srv, base, err := startServer(bin, ckArgs, timeout)
	if err != nil {
		return fmt.Errorf("crash phase: %w", err)
	}
	fmt.Println("resumesmoke: [2/3] checkpointed run, SIGKILL mid-simulation")
	done := make(chan error, 1)
	go func() {
		_, err := servertest.PostJSON(client, base+"/v1/run", reqBody(accesses))
		done <- err
	}()
	if err := waitForCheckpoints(ckDir, minInterval, done, timeout); err != nil {
		srv.Process.Kill()
		srv.Wait()
		return fmt.Errorf("crash phase: %w", err)
	}
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("crash phase: SIGKILL: %w", err)
	}
	srv.Wait()
	<-done // the in-flight request fails with a connection error; expected
	files, _ := filepath.Glob(filepath.Join(ckDir, "*.ckpt"))
	fmt.Printf("resumesmoke: killed with %d checkpoint file(s) on disk\n", len(files))
	if len(files) == 0 {
		return fmt.Errorf("crash phase: no checkpoint survived the kill")
	}

	// Phase 3: restart on the same directory; the re-issued run must
	// warm-start and reproduce the reference bytes exactly.
	return withServerErr(bin, ckArgs, timeout, func(base string) error {
		fmt.Println("resumesmoke: [3/3] restart, re-issue, verify")
		got, err := servertest.PostJSON(client, base+"/v1/run", reqBody(accesses))
		if err != nil {
			return fmt.Errorf("re-issued run: %w", err)
		}
		if !bytes.Equal(got, ref) {
			return fmt.Errorf("resumed result diverged from the uninterrupted reference:\n  ref: %s\n  got: %s", ref, got)
		}
		var st struct {
			Checkpoint *struct {
				Restores       uint64 `json:"restores"`
				IntervalsSaved uint64 `json:"resume_intervals_saved"`
			} `json:"checkpoint"`
		}
		if err := servertest.GetJSON(client, base+"/v1/stats", &st); err != nil {
			return err
		}
		if st.Checkpoint == nil || st.Checkpoint.Restores < 1 {
			return fmt.Errorf("run did not warm-start: /v1/stats checkpoint = %+v", st.Checkpoint)
		}
		if st.Checkpoint.IntervalsSaved < 1 {
			return fmt.Errorf("warm start saved no intervals: %+v", *st.Checkpoint)
		}
		met, err := getText(client, base+"/metrics")
		if err != nil {
			return err
		}
		for _, series := range []string{"lap_checkpoint_restores_total", "lap_checkpoint_corrupt_total"} {
			if !strings.Contains(met, series) {
				return fmt.Errorf("/metrics is missing %s", series)
			}
		}
		fmt.Printf("resumesmoke: byte-identical resume, %d restore(s), %d interval(s) not re-simulated\n",
			st.Checkpoint.Restores, st.Checkpoint.IntervalsSaved)
		return nil
	})
}

// waitForCheckpoints polls dir until a *.ckpt file reaches interval
// index min (the file name ends in the hex interval, and the store
// replaces the file as the run advances), the run finishes early (too
// fast to kill — a sizing error), or the deadline.
func waitForCheckpoints(dir string, min uint64, done <-chan error, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if latestInterval(dir) >= min {
			// One more beat so the kill lands mid-interval, not at a
			// checkpoint boundary.
			time.Sleep(100 * time.Millisecond)
			return nil
		}
		select {
		case err := <-done:
			return fmt.Errorf("run finished before checkpoint interval %d appeared (err=%v); raise -accesses or lower -checkpoint-every", min, err)
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no checkpoints after %v", timeout)
		}
	}
}

// latestInterval reads the highest interval index among dir's *.ckpt
// file names ("<kind>-<cfg>-<workload>-<interval hex>.ckpt"); 0 when
// none exist.
func latestInterval(dir string) uint64 {
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	var max uint64
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), ".ckpt")
		i := strings.LastIndexByte(base, '-')
		if i < 0 {
			continue
		}
		if n, err := strconv.ParseUint(base[i+1:], 16, 64); err == nil && n > max {
			max = n
		}
	}
	return max
}

// startServer launches one lapserved on an ephemeral loopback port and
// parses the listen line for its address.
func startServer(bin string, extra []string, timeout time.Duration) (*exec.Cmd, string, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addr:
		return cmd, "http://" + a, nil
	case <-time.After(timeout):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("server did not report a listen address within %v", timeout)
	}
}

// withServer runs fn against a fresh lapserved instance and always tears
// it down.
func withServer(bin string, extra []string, timeout time.Duration, fn func(base string) ([]byte, error)) ([]byte, error) {
	cmd, base, err := startServer(bin, extra, timeout)
	if err != nil {
		return nil, err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	return fn(base)
}

func withServerErr(bin string, extra []string, timeout time.Duration, fn func(base string) error) error {
	_, err := withServer(bin, extra, timeout, func(base string) ([]byte, error) { return nil, fn(base) })
	return err
}

func getText(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
