// Package service is the multi-tenant federation control plane: one
// dinar-server process hosts many concurrent named federation jobs, each
// a full flnet server with its own config, checkpoint chain, quarantine
// state, wire-codec negotiation, and job-labeled telemetry registry. The
// pieces: a job registry with a created→running→draining→done lifecycle
// (plus pause/resume through the checkpoint chain), an admin REST API
// (POST /jobs, status, drain/pause/resume/delete), a shared front-door
// listener that routes each client Hello to its job with per-client rate
// limiting and bounded-backlog backpressure, and a rolling-restart path
// that re-adopts every job's latest valid checkpoint from the state
// directory's manifest.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/fl"
	"repro/internal/flnet"
)

// JobSpec is the wire form of one federation job's configuration — the
// body of POST /jobs and the unit persisted in the service manifest.
// Semantics mirror the dinar-server flags / flnet.ServerConfig fields of
// the same names; zero values mean the same defaults.
type JobSpec struct {
	// Name identifies the job: the routing key clients put in their
	// Hello, the telemetry label, and the checkpoint-file stem. Letters,
	// digits, dots, underscores, and dashes only.
	Name string `json:"name"`
	// Dataset names the registered dataset the job trains on (decides
	// the model architecture and the initial global state).
	Dataset string `json:"dataset"`
	// Defense selects the privacy defense ("none", "dinar", ...).
	Defense string `json:"defense,omitempty"`
	// Aggregator selects the aggregation rule (fedavg, krum, ...).
	Aggregator string `json:"aggregator,omitempty"`
	// MaxByzantine is the attacker count robust aggregators tolerate.
	MaxByzantine int `json:"max_byzantine,omitempty"`
	// Clients is the federation size (Hello ids live in [0, Clients)).
	Clients int `json:"clients"`
	// Rounds is the number of federated rounds.
	Rounds int `json:"rounds"`
	// Seed is the federation seed shared with the job's clients.
	Seed int64 `json:"seed,omitempty"`
	// Records overrides the dataset record count (0 = dataset default).
	Records int `json:"records,omitempty"`

	MinClients      int   `json:"min_clients,omitempty"`
	RoundDeadlineMs int   `json:"round_deadline_ms,omitempty"`
	SampleSize      int   `json:"sample_size,omitempty"`
	SampleSeed      int64 `json:"sample_seed,omitempty"`
	AsyncStaleness  int   `json:"async_staleness,omitempty"`
	Streaming       bool  `json:"streaming,omitempty"`

	NoScreen         bool `json:"no_screen,omitempty"`
	ClipNorms        bool `json:"clip_norms,omitempty"`
	QuarantineRounds int  `json:"quarantine_rounds,omitempty"`

	Compress  bool    `json:"compress,omitempty"`
	Quantize  string  `json:"quantize,omitempty"`
	TopK      float64 `json:"topk,omitempty"`
	Delta     bool    `json:"delta,omitempty"`
	QuantSeed int64   `json:"quant_seed,omitempty"`

	// Pipeline overlaps each round's checkpoint write with the next
	// round's broadcast (see flnet.ServerConfig.Pipeline).
	Pipeline bool `json:"pipeline,omitempty"`
}

// RoundDeadline returns the spec's per-round collection deadline.
func (s *JobSpec) RoundDeadline() time.Duration {
	return time.Duration(s.RoundDeadlineMs) * time.Millisecond
}

// SpecError is one typed validation failure of a JobSpec field — the
// admin API returns these in a 400 body so callers can machine-match the
// offending field instead of parsing prose.
type SpecError struct {
	// Field is the JSON field name ("" for document-level failures).
	Field string `json:"field,omitempty"`
	// Code classifies the failure: "malformed" (undecodable document),
	// "unknown_field", "missing", "invalid", or "conflict".
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// Error implements error.
func (e *SpecError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("spec: %s: %s", e.Code, e.Message)
	}
	return fmt.Sprintf("spec: field %q: %s: %s", e.Field, e.Code, e.Message)
}

// SpecErrors is the full validation verdict for one JobSpec.
type SpecErrors []*SpecError

// Error implements error.
func (es SpecErrors) Error() string {
	msgs := make([]string, len(es))
	for i, e := range es {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "; ")
}

// maxSpecBytes bounds a POST /jobs body; a job spec is a small JSON
// document, never megabytes.
const maxSpecBytes = 1 << 20

// DecodeJobSpec strictly decodes one JobSpec document: unknown fields,
// trailing data, and oversized bodies are errors (never a silently
// half-read spec). The decoded spec is NOT yet validated — callers pair
// this with Validate before a job is constructed.
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	spec := &JobSpec{}
	if err := dec.Decode(spec); err != nil {
		code := "malformed"
		if strings.Contains(err.Error(), "unknown field") {
			code = "unknown_field"
		}
		return nil, SpecErrors{{Code: code, Message: err.Error()}}
	}
	// A second document (or any trailing token) is a malformed request,
	// not an ignorable tail.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return nil, SpecErrors{{Code: "malformed", Message: "trailing data after the job spec document"}}
	}
	return spec, nil
}

// nameOK reports whether every byte of a job name is in the safe charset
// — the name becomes a file-path stem and a Prometheus label value, so
// separators and quotes are rejected outright.
func nameOK(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// serverConfig maps the spec onto the flnet.ServerConfig its job runs
// with, minus what only a started job has (defense, initial state,
// listener, checkpoint path, telemetry and log sinks).
func (s *JobSpec) serverConfig() flnet.ServerConfig {
	return flnet.ServerConfig{
		NumClients:        s.Clients,
		MinClients:        s.MinClients,
		Rounds:            s.Rounds,
		RoundDeadline:     s.RoundDeadline(),
		SampleSize:        s.SampleSize,
		SampleSeed:        s.SampleSeed,
		SampleSeedDefault: s.Seed,
		AsyncStaleness:    s.AsyncStaleness,
		Streaming:         s.Streaming,
		Compress:          s.Compress,
		Quantize:          s.Quantize,
		TopK:              s.TopK,
		Delta:             s.Delta,
		QuantSeed:         s.QuantSeed,
		QuantSeedDefault:  s.Seed,
		Pipeline:          s.Pipeline,
		Dataset:           s.Dataset,
		NoScreen:          s.NoScreen,
		Screen: fl.ScreenConfig{
			ClipNorms:        s.ClipNorms,
			QuarantineRounds: s.QuarantineRounds,
		},
	}
}

// specFields maps each flnet.ServerConfig field a rule can name to the
// JSON field of the spec that sets it.
var specFields = map[string]string{
	"NumClients":     "clients",
	"Rounds":         "rounds",
	"MinClients":     "min_clients",
	"SampleSize":     "sample_size",
	"RoundDeadline":  "round_deadline_ms",
	"AsyncStaleness": "async_staleness",
	"Quantize":       "quantize",
	"TopK":           "topk",
	"QuantSeed":      "quant_seed",
}

// Validate checks the control-plane rules only the service knows about
// (name charset, dataset, seed, records) and every flnet.ServerConfig rule
// of the config the job would run with — the same rules dinar-server's
// flags pass through — returning the full list of typed failures. A spec
// that passes can still fail job construction for environmental reasons
// (an unknown dataset name, a defense that conflicts with the wire
// options, a checkpoint recorded with a different seed) — but never with
// a half-constructed job: construction happens before the job is
// registered or its supervisor starts.
func (s *JobSpec) Validate() error {
	var errs SpecErrors
	add := func(field, code, msg string) { errs = append(errs, &SpecError{Field: field, Code: code, Message: msg}) }

	switch {
	case s.Name == "":
		add("name", "missing", "job name is required")
	case len(s.Name) > 64:
		add("name", "invalid", "job name longer than 64 bytes")
	case !nameOK(s.Name):
		add("name", "invalid", "job name may contain only letters, digits, '.', '_', and '-'")
	}
	if s.Dataset == "" {
		add("dataset", "missing", "dataset is required")
	}
	if s.Seed < 0 {
		add("seed", "invalid", fmt.Sprintf("seed must be non-negative, got %d", s.Seed))
	}
	if s.Records < 0 {
		add("records", "invalid", fmt.Sprintf("records must be non-negative, got %d", s.Records))
	}
	cfg := s.serverConfig()
	var cerrs flnet.ConfigErrors
	if errors.As(cfg.Validate(), &cerrs) {
		for _, e := range cerrs {
			add(specFields[e.Field], e.Code, e.Message)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}
