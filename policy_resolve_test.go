package lap

import (
	"errors"
	"strings"
	"testing"
)

// One canonical policy-name behavior for every entry point: the CLI
// (-policy), the library (NewController/ResolvePolicies), and the HTTP
// API all route through Config.ValidatePolicy / Config.ResolvePolicies,
// so this table is the contract all of them share.
func TestResolvePoliciesCanonical(t *testing.T) {
	stt := DefaultConfig()
	hybrid := DefaultConfig().WithHybridL3()

	allSTT, _, err := ResolvePolicies(stt, "all")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		cfg     Config
		arg     string
		want    []Policy
		errPart string // non-empty: expect a FieldError containing it
	}{
		{name: "single canonical", cfg: stt, arg: "LAP", want: []Policy{PolicyLAP}},
		{name: "case folded", cfg: stt, arg: "lap", want: []Policy{PolicyLAP}},
		{name: "whitespace and empties", cfg: stt, arg: " LAP , ,exclusive ", want: []Policy{PolicyLAP, PolicyExclusive}},
		{name: "duplicates collapse", cfg: stt, arg: "LAP,lap,LAP", want: []Policy{PolicyLAP}},
		{name: "dwb suffix canonicalised", cfg: stt, arg: "lap+dwb", want: []Policy{"LAP+DWB"}},
		{name: "unknown name", cfg: stt, arg: "bogus", errPart: "unknown policy"},
		{name: "explicit hybrid-only on uniform LLC", cfg: stt, arg: "Lhybrid", errPart: "hybrid"},
		{name: "hybrid-only allowed on hybrid LLC", cfg: hybrid, arg: "Lhybrid", want: []Policy{PolicyLhybrid}},
		{name: "empty list", cfg: stt, arg: " , ", errPart: "no policies"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := ResolvePolicies(tc.cfg, tc.arg)
			if tc.errPart != "" {
				if err == nil {
					t.Fatalf("ResolvePolicies(%q) accepted, want error containing %q (got %v)", tc.arg, tc.errPart, got)
				}
				var fe *FieldError
				if !errors.As(err, &fe) || fe.Field != "Policy" {
					t.Fatalf("ResolvePolicies(%q): error %v is not a Policy FieldError", tc.arg, err)
				}
				if !strings.Contains(err.Error(), tc.errPart) {
					t.Fatalf("ResolvePolicies(%q): error %q lacks %q", tc.arg, err, tc.errPart)
				}
				return
			}
			if err != nil {
				t.Fatalf("ResolvePolicies(%q): %v", tc.arg, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ResolvePolicies(%q): got %v, want %v", tc.arg, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ResolvePolicies(%q): got %v, want %v", tc.arg, got, tc.want)
				}
			}
		})
	}

	t.Run("all skips hybrid-only on uniform LLC", func(t *testing.T) {
		for _, p := range allSTT {
			if p == PolicyLhybrid {
				t.Fatalf("all on the STT config includes Lhybrid: %v", allSTT)
			}
		}
		_, notices, err := ResolvePolicies(stt, "all")
		if err != nil {
			t.Fatal(err)
		}
		if len(notices) != 1 || !strings.Contains(notices[0], "Lhybrid") {
			t.Fatalf("want one Lhybrid skip notice, got %v", notices)
		}
	})

	t.Run("all includes everything on hybrid LLC", func(t *testing.T) {
		got, notices, err := ResolvePolicies(hybrid, "all")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(Policies()) || len(notices) != 0 {
			t.Fatalf("hybrid all: got %v (notices %v), want every policy", got, notices)
		}
	})

	t.Run("unknown error lists valid names", func(t *testing.T) {
		_, err := ValidatePolicy(stt, "bogus")
		if err == nil {
			t.Fatal("unknown policy accepted")
		}
		for _, p := range Policies() {
			if !strings.Contains(err.Error(), string(p)) {
				t.Errorf("error %q lacks valid name %q", err, p)
			}
		}
	})
}
