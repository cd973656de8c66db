package fl

import (
	"fmt"
	"math"
	"sync"
)

// The screen is the update validation stage every round passes through
// before the defense's aggregation rule runs: structurally invalid or
// non-finite updates are rejected outright, over-norm updates are clipped
// or rejected against a median-of-norms bound fixed from earlier rounds,
// and repeat offenders are quarantined — their updates are excluded for a
// fixed number of rounds even if they reconnect under the fault-tolerance
// path.

// ScreenConfig configures the update screen. The zero value is a useful
// default: reject non-finite updates, no norm clipping, quarantine after
// the first offense for three rounds.
type ScreenConfig struct {
	// AllowNonFinite disables the NaN/Inf rejection. Leave false: a single
	// NaN coordinate corrupts FedAvg and misorders sort-based rules.
	AllowNonFinite bool
	// ClipNorms enables delta-norm validation: each update's L2 distance to
	// the round's starting global state is compared against a median of
	// the norms accepted in earlier rounds. Off by default because defenses
	// with legitimately outsized uploads (secure aggregation's masked
	// states) must not be clipped.
	ClipNorms bool
	// NormMultiple scales the clip bound (default 3): deltas with norm in
	// (NormMultiple×median, RejectMultiple×median] are scaled down to the
	// bound.
	NormMultiple float64
	// RejectMultiple scales the rejection bound (default 10): deltas past
	// it are dropped and count as an offense.
	RejectMultiple float64
	// HistoryWindow is how many recent accepted norms the running median
	// covers (default 64).
	HistoryWindow int
	// MinHistory is how many accepted norms must be observed before norm
	// verdicts activate (default 4) — the first rounds calibrate the bound.
	MinHistory int
	// Strikes is the number of rejected updates before a client is
	// quarantined (default 1).
	Strikes int
	// QuarantineRounds is how many rounds a quarantined client's updates
	// are excluded for (default 3). Negative disables quarantine.
	QuarantineRounds int
}

func (c ScreenConfig) withDefaults() ScreenConfig {
	if c.NormMultiple <= 0 {
		c.NormMultiple = 3
	}
	if c.RejectMultiple <= 0 {
		c.RejectMultiple = 10
	}
	if c.RejectMultiple < c.NormMultiple {
		c.RejectMultiple = c.NormMultiple
	}
	if c.HistoryWindow <= 0 {
		c.HistoryWindow = 64
	}
	if c.MinHistory <= 0 {
		c.MinHistory = 4
	}
	if c.Strikes <= 0 {
		c.Strikes = 1
	}
	if c.QuarantineRounds == 0 {
		c.QuarantineRounds = 3
	}
	return c
}

// ScreenVerdict records why one update was rejected.
type ScreenVerdict struct {
	ClientID int
	Reason   string
}

// ScreenReport is one round's screening outcome.
type ScreenReport struct {
	// Round is the round the verdicts belong to.
	Round int
	// Accepted lists the client ids whose updates reached the defense
	// (including clipped ones).
	Accepted []int
	// Clipped lists the client ids whose deltas were norm-clipped.
	Clipped []int
	// Rejected lists the rejected updates with reasons.
	Rejected []ScreenVerdict
	// Quarantined lists client ids whose updates were dropped because the
	// client is serving a quarantine penalty from an earlier round.
	Quarantined []int
	// NewlyQuarantined lists client ids whose penalty started this round.
	NewlyQuarantined []int
}

// RejectedIDs returns the rejected client ids.
func (r *ScreenReport) RejectedIDs() []int {
	ids := make([]int, len(r.Rejected))
	for i, v := range r.Rejected {
		ids[i] = v.ClientID
	}
	return ids
}

// Screen validates updates and tracks per-client reputation. Safe for
// concurrent use.
type Screen struct {
	cfg ScreenConfig
	tel *Metrics

	mu sync.Mutex
	// norms backs the clip and reject bounds; they come from completed
	// rounds only, so they stay fixed for the whole of a round.
	norms normWindow
	// offenses counts rejected updates per client.
	offenses map[int]int
	// blockedUntil maps a quarantined client to the last round (inclusive)
	// its updates are excluded.
	blockedUntil map[int]int
}

// NewScreen builds a screen from cfg (zero value: defaults).
func NewScreen(cfg ScreenConfig) *Screen {
	cfg = cfg.withDefaults()
	return &Screen{
		cfg:          cfg,
		norms:        normWindow{size: cfg.HistoryWindow, minHistory: cfg.MinHistory},
		tel:          defaultMetrics,
		offenses:     make(map[int]int),
		blockedUntil: make(map[int]int),
	}
}

// SetMetrics points the screen's verdict counters at m — per-job bundles
// in service mode, see Server.SetMetrics. nil restores the default.
func (s *Screen) SetMetrics(m *Metrics) {
	if m == nil {
		m = defaultMetrics
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = m
}

// Quarantined reports whether clientID's updates are excluded at round.
func (s *Screen) Quarantined(clientID, round int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined(clientID, round)
}

// quarantined is the lock-free core of Quarantined. The existence check
// matters: the map's zero value would otherwise quarantine every client at
// round 0. Callers hold s.mu.
func (s *Screen) quarantined(clientID, round int) bool {
	until, ok := s.blockedUntil[clientID]
	return ok && round <= until
}

// Offenses returns how many of clientID's updates have been rejected.
func (s *Screen) Offenses(clientID int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offenses[clientID]
}

// commitRound moves the finished round's accepted norms into the window.
func (s *Screen) commitRound() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.norms.commit()
}

// abortRound drops the abandoned round's accepted norms. Offenses booked
// during the round stick.
func (s *Screen) abortRound() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.norms.abort()
}

// reject books an offense for clientID at round and starts a quarantine
// penalty when the strike budget is exhausted. Callers hold s.mu. Returns
// whether the client was newly quarantined.
func (s *Screen) reject(clientID, round int) bool {
	s.offenses[clientID]++
	if s.cfg.QuarantineRounds < 0 || s.offenses[clientID] < s.cfg.Strikes {
		return false
	}
	until := round + s.cfg.QuarantineRounds
	if prev, ok := s.blockedUntil[clientID]; ok && until <= prev {
		return false
	}
	already := s.quarantined(clientID, round)
	s.blockedUntil[clientID] = until
	return !already
}

// ScreenState is the screen's exportable reputation state, checkpointed by
// the middleware so quarantine penalties survive a server restart (a
// poisoner must not be paroled by crashing the server).
type ScreenState struct {
	// Offenses counts rejected updates per client id.
	Offenses map[int]int
	// BlockedUntil maps a quarantined client id to the last round
	// (inclusive) its updates are excluded.
	BlockedUntil map[int]int
	// Norms is the running window of accepted delta norms.
	Norms []float64
}

// ExportState deep-copies the screen's reputation state for checkpointing.
func (s *Screen) ExportState() ScreenState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ScreenState{
		Offenses:     make(map[int]int, len(s.offenses)),
		BlockedUntil: make(map[int]int, len(s.blockedUntil)),
		Norms:        append([]float64(nil), s.norms.norms...),
	}
	for id, n := range s.offenses {
		st.Offenses[id] = n
	}
	for id, until := range s.blockedUntil {
		st.BlockedUntil[id] = until
	}
	return st
}

// ImportState replaces the screen's reputation state with a checkpointed
// copy (crash recovery). Nil maps reset the corresponding state.
func (s *Screen) ImportState(st ScreenState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offenses = make(map[int]int, len(st.Offenses))
	s.blockedUntil = make(map[int]int, len(st.BlockedUntil))
	for id, n := range st.Offenses {
		s.offenses[id] = n
	}
	for id, until := range st.BlockedUntil {
		s.blockedUntil[id] = until
	}
	s.norms.load(st.Norms)
}

// Apply screens one whole round's updates against prevGlobal (the state
// the round started from), commits the round's accepted norms, and returns
// the survivors plus the verdict report. Input updates are never mutated;
// clipped updates are copies.
func (s *Screen) Apply(round int, prevGlobal []float64, updates []*Update) ([]*Update, ScreenReport) {
	report := ScreenReport{Round: round}
	kept := make([]*Update, 0, len(updates))
	for _, u := range updates {
		if su, verdict := s.applyOne(&report, round, prevGlobal, u); verdict < OfferRejected {
			kept = append(kept, su)
		}
	}
	s.commitRound()
	return kept, report
}

// applyOne screens a single update as it arrives: the verdict is returned
// and appended to report (the round's running report, owned by the
// caller), and the returned update is the one to aggregate (a scaled copy
// when clipped, nil when dropped). Every bound comes from rounds before
// this one, so a round's verdicts do not depend on the order its updates
// arrive in.
func (s *Screen) applyOne(report *ScreenReport, round int, prevGlobal []float64, u *Update) (*Update, OfferVerdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.updateOccupancy(round)
	if s.quarantined(u.ClientID, round) {
		report.Quarantined = append(report.Quarantined, u.ClientID)
		s.tel.ScreenQuarantined.Inc()
		return nil, OfferQuarantined
	}
	if reason := s.validate(prevGlobal, u); reason != "" {
		report.Rejected = append(report.Rejected, ScreenVerdict{ClientID: u.ClientID, Reason: reason})
		s.tel.ScreenRejected.Inc()
		if s.reject(u.ClientID, round) {
			report.NewlyQuarantined = append(report.NewlyQuarantined, u.ClientID)
		}
		return nil, OfferRejected
	}
	su, clipped := s.clip(prevGlobal, u)
	report.Accepted = append(report.Accepted, su.ClientID)
	s.tel.ScreenAccepted.Inc()
	if clipped {
		report.Clipped = append(report.Clipped, su.ClientID)
		s.tel.ScreenClipped.Inc()
		return su, OfferClipped
	}
	return su, OfferAccepted
}

// updateOccupancy refreshes the quarantine-occupancy gauge. Callers hold
// s.mu.
func (s *Screen) updateOccupancy(round int) {
	occupancy := 0
	for _, until := range s.blockedUntil {
		if round <= until {
			occupancy++
		}
	}
	s.tel.QuarantineOccupancy.Set(int64(occupancy))
}

// validate returns a rejection reason, or "" for a structurally sound
// update. Callers hold s.mu.
func (s *Screen) validate(prevGlobal []float64, u *Update) string {
	if len(u.State) != len(prevGlobal) {
		return fmt.Sprintf("state has %d values, want %d", len(u.State), len(prevGlobal))
	}
	if u.NumSamples < 0 {
		return fmt.Sprintf("negative sample count %d", u.NumSamples)
	}
	if !s.cfg.AllowNonFinite {
		for i, v := range u.State {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Sprintf("non-finite value %g at coordinate %d", v, i)
			}
		}
	}
	if s.cfg.ClipNorms {
		if med, ok := s.norms.median(); ok {
			if norm := DeltaNorm(prevGlobal, u.State); norm > s.cfg.RejectMultiple*med {
				return fmt.Sprintf("delta norm %.4g exceeds reject bound %.4g", norm, s.cfg.RejectMultiple*med)
			}
		}
	}
	return ""
}

// clip applies the norm bound to an accepted update, returning a scaled
// copy when the delta exceeds the bound, and holds the accepted norm for
// the round's commit. Callers hold s.mu.
func (s *Screen) clip(prevGlobal []float64, u *Update) (*Update, bool) {
	if !s.cfg.ClipNorms {
		return u, false
	}
	norm := DeltaNorm(prevGlobal, u.State)
	med, ok := s.norms.median()
	if !ok || norm <= s.cfg.NormMultiple*med {
		s.norms.add(norm)
		return u, false
	}
	bound := s.cfg.NormMultiple * med
	scale := bound / norm
	state := make([]float64, len(u.State))
	for i := range state {
		state[i] = prevGlobal[i] + scale*(u.State[i]-prevGlobal[i])
	}
	cu := *u
	cu.State = state
	s.norms.add(bound)
	return &cu, true
}
