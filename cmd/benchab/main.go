// Command benchab compares the repository benchmark (BENCHMARK.json,
// run through lapbench/run.sh) between a base revision and the working
// tree. It exports the base with git archive into a temporary directory,
// then runs the two checkouts in alternating pairs, swapping which side
// runs first each pair, at the run length BENCHMARK.json fixes:
//
//	go run ./cmd/benchab -workload artifact-quick -pairs 10 -base HEAD~1
//	make bench-ab WORKLOAD=artifact-quick PAIRS=10 BASE=HEAD~1
//
// For every end-to-end metric it prints each side's median and quartiles,
// how many pairs the change won (ties count for neither side), and a
// verdict: "gain" when the change wins at least nine tenths of the pairs
// and the medians differ by more than the base's interquartile range,
// "regression" when the change's median is worse than the base's by more
// than the metric's bound, and "within noise" otherwise. It reports only:
// the exit status says whether every run completed, not what it measured.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

// metric is one end-to-end metric declaration.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the part of the benchmark's final output line the
// comparison reads.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one checkout under comparison and the results of its runs.
type side struct {
	name, dir string
	runs      []result
}

func main() {
	workload := flag.String("workload", "artifact-quick", "benchmark workload to compare")
	pairs := flag.Int("pairs", 10, "number of alternating (base, change) run pairs")
	base := flag.String("base", "HEAD", "git revision to compare the working tree against")
	seed := flag.Uint64("seed", 1, "workload seed, the same on both sides")
	flag.Parse()
	if err := compare(*workload, *pairs, *base, *seed, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
}

func compare(workload string, pairs int, rev string, seed uint64, out io.Writer) error {
	if pairs < 1 {
		return fmt.Errorf("need at least one pair, got %d", pairs)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the checkout root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	dir, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := export(rev, dir); err != nil {
		return err
	}
	sides := [2]*side{{name: "base", dir: dir}, {name: "change", dir: "."}}
	args := []string{"lapbench/run.sh", "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0"}
	var host string
	for i := 0; i < pairs; i++ {
		order := []*side{sides[0], sides[1]}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, s := range order {
			fmt.Fprintf(os.Stderr, "benchab: pair %d/%d: %s\n", i+1, pairs, s.name)
			res, h, err := runOnce(s.dir, args)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, s.name, err)
			}
			if host == "" {
				host = h
			}
			s.runs = append(s.runs, res)
		}
	}
	fmt.Fprintf(out, "workload %s, seed %d, %d pairs of %d s runs, base %s vs working tree\n",
		workload, seed, pairs, sp.RunSeconds, rev)
	if host != "" {
		fmt.Fprintln(out, host)
	}
	report(out, sp.EndToEnd, sides[0], sides[1])
	return nil
}

// export writes the tree of rev into dir.
func export(rev, dir string) error {
	archive := exec.Command("git", "archive", rev)
	archive.Stderr = os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin = pipe
	untar.Stderr = os.Stderr
	if err := archive.Start(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Run(); err != nil {
		archive.Wait()
		return fmt.Errorf("unpack %s: %w", rev, err)
	}
	if err := archive.Wait(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return nil
}

// runOnce runs the benchmark in dir and parses its last output line; the
// line before it is the host stamp, returned as printed.
func runOnce(dir string, args []string) (result, string, error) {
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, "", err
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		return result{}, "", fmt.Errorf("no output")
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, "", fmt.Errorf("parse result line: %w", err)
	}
	host := ""
	if len(lines) > 1 && strings.HasPrefix(lines[len(lines)-2], "host ") {
		host = lines[len(lines)-2]
	}
	return res, host, nil
}

// report prints one row per end-to-end metric, then the failure counts.
func report(out io.Writer, metrics []metric, base, change *side) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbetter\tbase median [q1, q3]\tchange median [q1, q3]\tchange wins\tverdict")
	for _, m := range metrics {
		b, c := values(base.runs, m.Name), values(change.runs, m.Name)
		bq, cq := quartiles(b), quartiles(c)
		w := wins(b, c, m.Better == "lower")
		fmt.Fprintf(tw, "%s (%s)\t%s\t%s\t%s\t%d/%d\t%s\n", m.Name, m.Unit, m.Better,
			fmtQ(bq), fmtQ(cq), w, len(b), verdict(m, bq, cq, w, len(b)))
	}
	tw.Flush()
	for _, m := range metrics {
		b, c := values(base.runs, m.Name), values(change.runs, m.Name)
		pairs := make([]string, len(b))
		for i := range b {
			pairs[i] = sig4(b[i]) + "/" + sig4(c[i])
		}
		fmt.Fprintf(out, "%s per pair (base/change): %s\n", m.Name, strings.Join(pairs, " "))
	}
	for _, s := range []*side{base, change} {
		attempted, failed := 0, 0
		for _, r := range s.runs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(out, "%s: %d of %d operations failed\n", s.name, failed, attempted)
	}
}

// values collects one metric across runs (NaN where a run lacks it).
func values(runs []result, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			v[i] = math.NaN()
			continue
		}
		v[i] = m.Value
	}
	return v
}

// quartiles returns the first quartile, median and third quartile of v,
// interpolating linearly between order statistics.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		x := p * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{q(0.25), q(0.5), q(0.75)}
}

// wins counts the pairs in which the change beat the base; ties count for
// neither side.
func wins(base, change []float64, lowerBetter bool) int {
	n := 0
	for i := range base {
		if lowerBetter && change[i] < base[i] || !lowerBetter && change[i] > base[i] {
			n++
		}
	}
	return n
}

// verdict applies the claim rule to one metric: a gain needs nine tenths
// of the pairs and a median gap wider than the base's interquartile
// range; a regression is a median worse by more than the metric's bound.
func verdict(m metric, base, change [3]float64, won, pairs int) string {
	gap := change[1] - base[1]
	if m.Better == "lower" {
		gap = -gap
	}
	switch {
	case 10*won >= 9*pairs && gap > base[2]-base[0]:
		return "gain"
	case base[1] != 0 && -gap/math.Abs(base[1]) > m.Bound:
		return "regression"
	default:
		return "within noise"
	}
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%s [%s, %s]", sig4(q[1]), sig4(q[0]), sig4(q[2]))
}

// sig4 formats v with four significant digits and no exponent.
func sig4(v float64) string {
	digits := 3
	if v != 0 && !math.IsNaN(v) {
		digits -= int(math.Floor(math.Log10(math.Abs(v))))
	}
	return strconv.FormatFloat(v, 'f', max(digits, 0), 64)
}
