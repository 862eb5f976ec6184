package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{5, 1, 4, 2, 3})
	if got != [3]float64{2, 3, 4} {
		t.Fatalf("quartiles of 1..5 = %v, want [2 3 4]", got)
	}
	got = quartiles([]float64{1, 2, 3, 4})
	if got != [3]float64{1.75, 2.5, 3.25} {
		t.Fatalf("quartiles of 1..4 = %v, want [1.75 2.5 3.25]", got)
	}
}

func TestSig4(t *testing.T) {
	for v, want := range map[float64]string{14830: "14830", 0.06745: "0.06745", 18.87: "18.87", 0: "0.000"} {
		if got := sig4(v); got != want {
			t.Errorf("sig4(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestWinsIgnoresTies(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 8}
	if n := wins(base, change, true); n != 2 {
		t.Errorf("lower-is-better wins = %d, want 2", n)
	}
	if n := wins(base, change, false); n != 1 {
		t.Errorf("higher-is-better wins = %d, want 1", n)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	base := [3]float64{95, 100, 105}
	cases := []struct {
		change [3]float64
		won    int
		want   string
	}{
		{[3]float64{78, 80, 82}, 10, "gain"},
		{[3]float64{78, 80, 82}, 8, "within noise"},    // too few pairs won
		{[3]float64{94, 96, 98}, 10, "within noise"},   // gap inside the base IQR
		{[3]float64{128, 130, 132}, 0, "regression"},   // 30% worse, bound 25%
		{[3]float64{118, 120, 122}, 0, "within noise"}, // 20% worse, inside the bound
	}
	for _, c := range cases {
		if got := verdict(lower, base, c.change, c.won, 10); got != c.want {
			t.Errorf("verdict(%v, won %d) = %q, want %q", c.change, c.won, got, c.want)
		}
	}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	if got := verdict(higher, base, [3]float64{118, 120, 122}, 10, 10); got != "gain" {
		t.Errorf("higher-is-better gain read as %q", got)
	}
	if got := verdict(higher, base, [3]float64{68, 70, 72}, 0, 10); got != "regression" {
		t.Errorf("higher-is-better regression read as %q", got)
	}
}

func TestReportRows(t *testing.T) {
	run := func(v float64, failed int) result {
		var r result
		r.Attempted, r.Failed = 4, failed
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"op_p50_ms": {Value: v}}
		return r
	}
	base := &side{name: "base", runs: []result{run(10, 0), run(11, 0), run(12, 0)}}
	change := &side{name: "change", runs: []result{run(8, 0), run(8, 1), run(9, 0)}}
	var out bytes.Buffer
	report(&out, []metric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}}, base, change)
	for _, want := range []string{"op_p50_ms (ms)", "3/3", "gain", "11.00 [10.50, 11.50]",
		"per pair (base/change): 10.00/8.000 11.00/8.000 12.00/9.000", "change: 1 of 12 operations failed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
