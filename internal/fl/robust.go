package fl

import (
	"fmt"
	"math"
	"sort"
)

// Robust aggregation rules. DINAR's initialization already assumes Byzantine
// participants (§4.1); these aggregators extend the same assumption to the
// learning rounds: a minority of corrupted clients cannot hijack the global
// model through crafted updates. They compose with any client-side defense.

// finiteColumn gathers coordinate i of every update, skipping NaN/Inf
// values: sort.Float64s misorders NaN (it compares false against
// everything), so a single NaN coordinate would silently corrupt the
// median/trim order instead of being out-voted like a finite outlier.
func finiteColumn(column []float64, updates []*Update, i int) []float64 {
	column = column[:0]
	for _, u := range updates {
		if v := u.State[i]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			column = append(column, v)
		}
	}
	return column
}

// Median computes the coordinate-wise median of the updates' state vectors.
// It tolerates up to ⌈N/2⌉−1 arbitrarily corrupted updates per coordinate;
// non-finite coordinates are filtered out before ordering. A coordinate with
// no finite value at all is an error.
func Median(updates []*Update) ([]float64, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fl: median of zero updates")
	}
	n := len(updates[0].State)
	for _, u := range updates {
		if len(u.State) != n {
			return nil, fmt.Errorf("fl: update from client %d has %d values, want %d", u.ClientID, len(u.State), n)
		}
	}
	out := make([]float64, n)
	column := make([]float64, 0, len(updates))
	for i := 0; i < n; i++ {
		column = finiteColumn(column, updates, i)
		if len(column) == 0 {
			return nil, fmt.Errorf("fl: median: coordinate %d has no finite value across %d updates", i, len(updates))
		}
		sort.Float64s(column)
		mid := len(column) / 2
		if len(column)%2 == 1 {
			out[i] = column[mid]
		} else {
			out[i] = (column[mid-1] + column[mid]) / 2
		}
	}
	return out, nil
}

// TrimmedMean computes the coordinate-wise mean after discarding the trim
// smallest and trim largest values per coordinate. It requires
// 2·trim < len(updates).
func TrimmedMean(updates []*Update, trim int) ([]float64, error) {
	if len(updates) == 0 {
		return nil, fmt.Errorf("fl: trimmed mean of zero updates")
	}
	if trim < 0 || 2*trim >= len(updates) {
		return nil, fmt.Errorf("fl: trim %d with %d updates", trim, len(updates))
	}
	n := len(updates[0].State)
	for _, u := range updates {
		if len(u.State) != n {
			return nil, fmt.Errorf("fl: update from client %d has %d values, want %d", u.ClientID, len(u.State), n)
		}
	}
	out := make([]float64, n)
	column := make([]float64, 0, len(updates))
	for i := 0; i < n; i++ {
		column = finiteColumn(column, updates, i)
		if 2*trim >= len(column) {
			return nil, fmt.Errorf("fl: trimmed mean: coordinate %d has %d finite values, need > %d for trim %d",
				i, len(column), 2*trim, trim)
		}
		sort.Float64s(column)
		s := 0.0
		for _, v := range column[trim : len(column)-trim] {
			s += v
		}
		out[i] = s / float64(len(column)-2*trim)
	}
	return out, nil
}

// RobustRule selects a robust aggregation rule.
type RobustRule int

// Supported robust rules.
const (
	RuleMedian RobustRule = iota + 1
	RuleTrimmedMean
	RuleKrum
	RuleMultiKrum
	RuleNormBound
)

// RobustDefense wraps any defense, replacing its server-side aggregation
// with a Byzantine-robust rule while keeping the client-side hooks (DINAR's
// personalization/obfuscation, DP noise, ...) untouched.
type RobustDefense struct {
	// Inner is the wrapped defense.
	Inner Defense
	// Rule selects the aggregation rule (default RuleMedian).
	Rule RobustRule
	// Trim is the per-side trim count for RuleTrimmedMean.
	Trim int
	// F is the assumed number of Byzantine clients for the Krum family.
	F int
	// M is the selection count for RuleMultiKrum (≤ 0 selects the maximum
	// n−F−2).
	M int
	// NormMultiple scales RuleNormBound's clip bound relative to the round's
	// median delta norm (≤ 0 means 1).
	NormMultiple float64
}

var _ Defense = (*RobustDefense)(nil)

// NewRobust wraps a defense with coordinate-wise-median aggregation.
func NewRobust(inner Defense) *RobustDefense {
	return &RobustDefense{Inner: inner, Rule: RuleMedian}
}

// Name implements Defense.
func (r *RobustDefense) Name() string { return r.Inner.Name() + "+robust" }

// Bind implements Defense.
func (r *RobustDefense) Bind(info ModelInfo) error { return r.Inner.Bind(info) }

// OnGlobalModel implements Defense.
func (r *RobustDefense) OnGlobalModel(clientID, round int, global []float64) []float64 {
	return r.Inner.OnGlobalModel(clientID, round, global)
}

// BeforeUpload implements Defense.
func (r *RobustDefense) BeforeUpload(round int, global []float64, u *Update) {
	r.Inner.BeforeUpload(round, global, u)
}

// Aggregate implements Defense with the robust rule.
func (r *RobustDefense) Aggregate(_ int, prevGlobal []float64, updates []*Update) ([]float64, error) {
	switch r.Rule {
	case RuleTrimmedMean:
		return TrimmedMean(updates, r.Trim)
	case RuleKrum:
		return Krum(updates, r.F)
	case RuleMultiKrum:
		return MultiKrum(updates, r.F, r.M)
	case RuleNormBound:
		return NormBoundedFedAvg(prevGlobal, updates, r.NormMultiple)
	default:
		return Median(updates)
	}
}

// StreamingAggregator implements StreamingCapable: the norm-bound rule can
// clip and fold each update as it arrives (against a trailing-window bound
// — see StreamingNormBound for how its calibration differs from the
// materialized same-round median), while the median, trimmed-mean, and
// Krum-family rules order or score the whole cohort at once and so declare
// themselves non-streaming (nil) — the server buffers those rounds for
// Aggregate, and flnet warns when streaming was requested.
func (r *RobustDefense) StreamingAggregator() StreamingAggregator {
	if r.Rule == RuleNormBound {
		return NewStreamingNormBound(r.NormMultiple)
	}
	return nil
}

// AggregatorNames lists the selectable server-side aggregation rules in the
// order the -aggregator flag documents them.
var AggregatorNames = []string{"fedavg", "median", "trimmed-mean", "krum", "multi-krum", "norm-bound"}

// WithAggregator wraps def so its server-side aggregation uses the named
// rule, keeping the client-side hooks untouched. f is the assumed number of
// Byzantine clients: it sets the per-side trim count for "trimmed-mean" and
// the tolerance of the Krum family. "fedavg" (or "") returns def unchanged —
// the defense's own aggregation rule applies.
func WithAggregator(def Defense, name string, f int) (Defense, error) {
	if f < 0 {
		return nil, fmt.Errorf("fl: negative Byzantine count %d", f)
	}
	switch name {
	case "", "fedavg":
		return def, nil
	case "median":
		return &RobustDefense{Inner: def, Rule: RuleMedian}, nil
	case "trimmed-mean":
		trim := f
		if trim == 0 {
			trim = 1
		}
		return &RobustDefense{Inner: def, Rule: RuleTrimmedMean, Trim: trim}, nil
	case "krum":
		return &RobustDefense{Inner: def, Rule: RuleKrum, F: f}, nil
	case "multi-krum":
		return &RobustDefense{Inner: def, Rule: RuleMultiKrum, F: f}, nil
	case "norm-bound":
		return &RobustDefense{Inner: def, Rule: RuleNormBound}, nil
	default:
		return nil, fmt.Errorf("fl: unknown aggregator %q (have %v)", name, AggregatorNames)
	}
}
