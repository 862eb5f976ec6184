package lap

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Machine-configuration serialisation: Config is a plain value struct, so
// it round-trips through JSON. SaveConfig/LoadConfig let experiments be
// pinned to files and replayed (`lapsim -config machine.json`).

// SaveConfig writes cfg to path as indented JSON.
func SaveConfig(path string, cfg Config) error {
	data, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return fmt.Errorf("lap: encoding config: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("lap: writing config: %w", err)
	}
	return nil
}

// LoadConfig reads a JSON machine configuration and validates it.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("lap: reading config: %w", err)
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		return Config{}, fmt.Errorf("lap: config %s: %w", path, err)
	}
	return cfg, nil
}

// ParseConfig decodes a (possibly partial) JSON machine configuration
// overlaid on DefaultConfig, and validates it. Empty input yields the
// defaults. An unknown key is a *FieldError naming it, so a misspelt
// knob fails loudly instead of silently running the default. This is the
// byte-level core of LoadConfig, shared with the lapserved request
// decoder.
func ParseConfig(data []byte) (Config, error) {
	// Start from the defaults so omitted fields stay sane.
	cfg := DefaultConfig()
	if len(data) > 0 {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			if key, ok := unknownField(err); ok {
				return Config{}, &FieldError{Field: key, Reason: "unknown configuration field"}
			}
			return Config{}, fmt.Errorf("decoding config: %w", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return Config{}, errors.New("decoding config: trailing data after the JSON object")
		}
	}
	if err := ValidateConfig(cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// unknownField extracts the key from encoding/json's unknown-field error
// (`json: unknown field "K"`), which has no typed form.
func unknownField(err error) (string, bool) {
	quoted, ok := strings.CutPrefix(err.Error(), "json: unknown field ")
	if !ok {
		return "", false
	}
	key, uerr := strconv.Unquote(quoted)
	return key, uerr == nil
}

// ValidateConfig checks a configuration for the mistakes the simulator
// would otherwise panic on. Failures are *FieldError values naming the
// offending Config field.
func ValidateConfig(cfg Config) error {
	return cfg.Validate()
}

// ValidatePolicy resolves a policy name against the policy registry
// under cfg, returning the canonical spelling ("lap+dwb" → "LAP+DWB").
// Unknown names and policies cfg cannot run — hybrid-only on a uniform
// LLC — are *FieldError values on "Policy" carrying the valid-name
// list, the same error every entry point (CLI, HTTP API, library)
// reports.
func ValidatePolicy(cfg Config, p Policy) (Policy, error) {
	canon, err := cfg.ValidatePolicy(string(p))
	if err != nil {
		return "", err
	}
	return Policy(canon), nil
}
