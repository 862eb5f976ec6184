package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	lap "repro"
)

// TestEveryRegisteredPolicyRunsOverHTTP is the server leg of the
// cross-layer conformance suite: every name in the registry validates
// and completes on /v1/run (hybrid-only policies with a hybrid-LLC
// config override), echoing its canonical name back.
func TestEveryRegisteredPolicyRunsOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{})
	hybridCfg := json.RawMessage(`{"L3SRAMWays": 4}`)
	for _, p := range lap.Policies() {
		t.Run(string(p), func(t *testing.T) {
			req := RunRequest{Mix: "WL1", Policy: strings.ToLower(string(p)), Accesses: smallAccesses}
			if p == lap.PolicyLhybrid {
				req.Config = hybridCfg
			}
			status, body := post(t, ts.URL+"/v1/run", req)
			if status != http.StatusOK {
				t.Fatalf("%s: got %d (%s), want 200", p, status, body)
			}
			var res RunResult
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("%s: decoding result: %v", p, err)
			}
			if res.Policy != string(p) {
				t.Fatalf("%s: echoed policy %q is not canonical", p, res.Policy)
			}
		})
	}
}
