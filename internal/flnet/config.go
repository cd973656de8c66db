package flnet

import (
	"fmt"
	"strings"

	"repro/internal/fl"
)

// ConfigError is one ServerConfig rule a configuration breaks.
type ConfigError struct {
	// Field names the ServerConfig field the rule constrains.
	Field string
	// Code classifies the failure: "invalid" (the value is out of range)
	// or "conflict" (it contradicts another field).
	Code string
	// Message explains the failure.
	Message string
}

// Error implements error.
func (e *ConfigError) Error() string { return "flnet: " + e.Message }

// ConfigErrors is every rule one ServerConfig breaks, in rule order.
type ConfigErrors []*ConfigError

// Error implements error.
func (es ConfigErrors) Error() string {
	msgs := make([]string, len(es))
	for i, e := range es {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "; ")
}

// configRule is one declared ServerConfig constraint: check returns why
// c breaks it, or "" when c complies.
type configRule struct {
	field, code string
	check       func(c *ServerConfig) string
}

// failIf returns the formatted message when bad, else "".
func failIf(bad bool, format string, args ...any) string {
	if !bad {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// configRules is every ServerConfig constraint, declared once. NewServer
// enforces them for the CLI and library callers, and service.JobSpec
// maps a job spec onto a ServerConfig and reports the same failures, so
// the admin API cannot disagree with the CLI. Rules that need the bound
// defense pass while Defense is nil (a job spec has none yet); NewServer
// checks them once it has one.
var configRules = []configRule{
	{"NumClients", "invalid", func(c *ServerConfig) string {
		return failIf(c.NumClients <= 0, "NumClients must be positive, got %d", c.NumClients)
	}},
	{"Rounds", "invalid", func(c *ServerConfig) string {
		return failIf(c.Rounds <= 0, "Rounds must be positive, got %d", c.Rounds)
	}},
	{"MinClients", "invalid", func(c *ServerConfig) string {
		return failIf(c.MinClients < 0 || (c.NumClients > 0 && c.MinClients > c.NumClients),
			"MinClients %d outside [0,%d]", c.MinClients, c.NumClients)
	}},
	{"SampleSize", "invalid", func(c *ServerConfig) string {
		return failIf(c.SampleSize < 0 || (c.NumClients > 0 && c.SampleSize > c.NumClients),
			"SampleSize %d outside [0,%d]", c.SampleSize, c.NumClients)
	}},
	{"MinClients", "conflict", func(c *ServerConfig) string {
		return failIf(c.SampleSize > 0 && c.quorum() > c.SampleSize,
			"quorum MinClients %d exceeds sample size %d: no round could ever reach quorum; lower MinClients or raise SampleSize",
			c.quorum(), c.SampleSize)
	}},
	{"RoundDeadline", "invalid", func(c *ServerConfig) string {
		return failIf(c.RoundDeadline < 0, "negative RoundDeadline %s", c.RoundDeadline)
	}},
	{"AsyncStaleness", "invalid", func(c *ServerConfig) string {
		return failIf(c.AsyncStaleness < 0, "negative AsyncStaleness %d", c.AsyncStaleness)
	}},
	{"AsyncStaleness", "conflict", func(c *ServerConfig) string {
		return failIf(c.cohortAware() && c.AsyncStaleness > 0,
			"defense is cohort-aware (secure aggregation): staleness-buffered updates would carry pairwise masks from an older cohort that cannot cancel; run it synchronously")
	}},
	{"Quantize", "invalid", func(c *ServerConfig) string {
		_, err := fl.ParseQuantKind(c.Quantize)
		return failIf(err != nil, "Quantize must be \"none\", \"int8\", or \"int16\", got %q", c.Quantize)
	}},
	{"Quantize", "conflict", func(c *ServerConfig) string {
		return failIf(c.quantized() && c.cohortAware(),
			"defense is cohort-aware (secure aggregation): quantized uploads would corrupt the pairwise mask cancellation; disable Quantize or the masking defense")
	}},
	{"TopK", "invalid", func(c *ServerConfig) string {
		return failIf(c.TopK < 0 || c.TopK >= 1, "TopK %g outside [0,1)", c.TopK)
	}},
	{"TopK", "conflict", func(c *ServerConfig) string {
		return failIf(c.TopK != 0 && !c.quantized(), "TopK sparsification requires quantization (set Quantize)")
	}},
	{"QuantSeed", "conflict", func(c *ServerConfig) string {
		return failIf(c.QuantSeed != 0 && !c.quantized(),
			"QuantSeed %d is set but quantization is disabled; a resumed quantized federation would silently diverge", c.QuantSeed)
	}},
}

// Validate checks c against every rule in configRules and returns all the
// failures as ConfigErrors, or nil.
func (c *ServerConfig) Validate() error {
	var errs ConfigErrors
	for _, r := range configRules {
		if msg := r.check(c); msg != "" {
			errs = append(errs, &ConfigError{Field: r.field, Code: r.code, Message: msg})
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}

// quorum is the effective MinClients (0 means NumClients).
func (c *ServerConfig) quorum() int {
	if c.MinClients == 0 {
		return c.NumClients
	}
	return c.MinClients
}

// quantized reports whether c offers a known quantization of uploads.
func (c *ServerConfig) quantized() bool {
	kind, err := fl.ParseQuantKind(c.Quantize)
	return err == nil && kind != fl.QuantNone
}

// cohortAware reports whether c's defense needs each round's cohort
// announced (secure aggregation's mask graph).
func (c *ServerConfig) cohortAware() bool {
	_, ok := c.Defense.(fl.CohortAware)
	return ok
}
