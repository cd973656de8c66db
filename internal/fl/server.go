package fl

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Server is the FL aggregation server. It owns the global model state vector
// and applies the defense's server-side aggregation rule each round, through
// one pipeline: BeginRound arms a round, Offer screens and folds one update,
// and FinishRound (or AbortRound) closes it.
type Server struct {
	state []float64
	def   Defense
	meter *metrics.CostMeter
	tel   *Metrics
	round int

	screen        *Screen
	screenReports []ScreenReport
	lastTiming    AggTiming
	release       func(state []float64)

	// Round state, armed by BeginRound. buffer is the aggregator of rules
	// that cannot stream; agg points at it for buffered rounds.
	armed     bool
	agg       StreamingAggregator
	buffer    bufferAgg
	report    ScreenReport
	screenDur time.Duration
	foldDur   time.Duration
	count     int
}

// AggTiming is the phase breakdown of one Aggregate call.
type AggTiming struct {
	// Screen is the update-screen duration (zero without a screen).
	Screen time.Duration
	// Aggregate is the defense's aggregation-rule duration.
	Aggregate time.Duration
}

// NewServer returns a server whose initial global state is a copy of initial.
// meter may be nil.
func NewServer(initial []float64, def Defense, meter *metrics.CostMeter) (*Server, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("fl: server needs a non-empty initial state")
	}
	if def == nil {
		return nil, fmt.Errorf("fl: server needs a defense (use defense.None for the baseline)")
	}
	return &Server{
		state: append([]float64(nil), initial...),
		def:   def,
		meter: meter,
		tel:   defaultMetrics,
	}, nil
}

// SetMetrics points the server's instruments at m — service mode gives
// each federation job its own bundle so concurrent jobs never merge
// counters. nil restores the process-wide default bundle.
func (s *Server) SetMetrics(m *Metrics) {
	if m == nil {
		m = defaultMetrics
	}
	s.tel = m
}

// GlobalState returns a copy of the current global model state.
func (s *Server) GlobalState() []float64 {
	return append([]float64(nil), s.state...)
}

// Round returns the number of completed aggregation rounds.
func (s *Server) Round() int { return s.round }

// SetRound moves the round counter, so a federation resumed from a
// checkpoint continues numbering where the snapshot left off (defenses
// receive the true round index in their hooks). Negative values are
// clamped to 0.
func (s *Server) SetRound(r int) {
	if r < 0 {
		r = 0
	}
	s.round = r
}

// SetScreen installs an update screen (validator + quarantine tracker)
// that every round's updates pass through before the defense aggregates.
// A nil screen disables screening.
func (s *Server) SetScreen(sc *Screen) { s.screen = sc }

// Screen returns the installed update screen (nil when screening is off).
func (s *Server) Screen() *Screen { return s.screen }

// ScreenReports returns a copy of the per-round screening reports recorded
// so far (empty without a screen).
func (s *Server) ScreenReports() []ScreenReport {
	return append([]ScreenReport(nil), s.screenReports...)
}

// LastScreenReport returns the most recent round's screening report.
func (s *Server) LastScreenReport() (ScreenReport, bool) {
	if len(s.screenReports) == 0 {
		return ScreenReport{}, false
	}
	return s.screenReports[len(s.screenReports)-1], true
}

// SetRelease installs the hook that receives each offered update's State
// buffer once the server no longer reads it: right after the fold when the
// round streams, at FinishRound or AbortRound when it buffers, and at once
// for an update the screen drops. The update's State is cleared after the
// hook runs. nil (the default) leaves every buffer with its owner.
func (s *Server) SetRelease(release func(state []float64)) { s.release = release }

// Aggregate runs one whole round through the round pipeline: the updates
// are offered in order and the defense's own aggregation rule combines the
// survivors. Without a screen a mis-sized update fails the round; with
// one, mismatched (or poisoned) updates are screened out and only the
// survivors aggregate.
func (s *Server) Aggregate(updates []*Update) error {
	if err := s.BeginRound(nil); err != nil {
		return err
	}
	for _, u := range updates {
		if _, err := s.Offer(u); err != nil {
			s.AbortRound()
			return err
		}
	}
	return s.FinishRound()
}

// LastAggTiming returns the phase breakdown of the most recent Aggregate
// call (screening vs the defense's aggregation rule).
func (s *Server) LastAggTiming() AggTiming { return s.lastTiming }

// OfferVerdict is the screen's per-arrival outcome for an offered update.
type OfferVerdict int

// Offer verdicts; those below OfferRejected mean the update survived.
const (
	// OfferAccepted: the update was folded into the running aggregate.
	OfferAccepted OfferVerdict = iota
	// OfferClipped: folded after the screen norm-clipped its delta.
	OfferClipped
	// OfferRejected: the screen rejected the update (not folded); the
	// caller should evict the sender like any protocol violator.
	OfferRejected
	// OfferQuarantined: dropped because the sender is serving a quarantine
	// penalty (not folded, sender not evicted).
	OfferQuarantined
)

var verdictNames = [...]string{"accepted", "clipped", "rejected", "quarantined"}

// String implements fmt.Stringer.
func (v OfferVerdict) String() string {
	if v >= 0 && int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// BeginRound arms the current round. With a streaming aggregator each
// offered update is folded into an O(model) accumulator and its buffer is
// released at once; with agg nil the round buffers the survivors and
// FinishRound runs the defense's own Aggregate over them, sorted by
// ClientID. The round counter does not advance until FinishRound.
func (s *Server) BeginRound(agg StreamingAggregator) error {
	if s.armed {
		return fmt.Errorf("fl: BeginRound while round %d is still open", s.round)
	}
	if agg == nil {
		s.buffer.def = s.def
		agg = &s.buffer
	}
	s.armed = true
	s.agg = agg
	s.report = ScreenReport{Round: s.round}
	s.screenDur, s.foldDur = 0, 0
	s.count = 0
	agg.Begin(s.round, s.state)
	return nil
}

// Offer screens one arriving update and folds it into the round. The
// verdict is the screen's outcome for this update. A non-nil error means
// the update was structurally incompatible (or the fold itself failed);
// the caller decides whether that fails the round or just the sender.
func (s *Server) Offer(u *Update) (OfferVerdict, error) {
	if !s.armed {
		return OfferRejected, fmt.Errorf("fl: Offer without BeginRound")
	}
	if u == nil {
		return OfferRejected, fmt.Errorf("fl: Offer of nil update")
	}
	verdict, held, err := s.offer(u)
	if !held {
		s.free(u)
	}
	return verdict, err
}

// offer is Offer's screen-and-fold step; held reports whether the round's
// buffer kept u itself.
func (s *Server) offer(u *Update) (verdict OfferVerdict, held bool, err error) {
	su := u
	if s.screen != nil {
		start := time.Now()
		su, verdict = s.screen.applyOne(&s.report, s.round, s.state, u)
		s.screenDur += time.Since(start)
		if verdict >= OfferRejected {
			return verdict, false, nil
		}
	} else if len(u.State) != len(s.state) {
		return OfferRejected, false, fmt.Errorf("fl: round %d update from client %d has %d values, want %d",
			s.round, u.ClientID, len(u.State), len(s.state))
	}
	peak := 8 * len(su.State)
	if mb, ok := s.agg.(interface{ MemoryBytes() int }); ok {
		peak += mb.MemoryBytes()
	}
	s.tel.AggUpdateBytesPeak.SetMax(int64(peak))
	start := time.Now()
	err = s.agg.Fold(su)
	s.foldDur += time.Since(start)
	if err != nil {
		return OfferRejected, false, fmt.Errorf("fl: round %d fold: %w", s.round, err)
	}
	s.count++
	return verdict, s.agg == &s.buffer && su == u, nil
}

// free hands u's State to the release hook, if one is installed.
func (s *Server) free(u *Update) {
	if s.release != nil && u.State != nil {
		s.release(u.State)
		u.State = nil
	}
}

// closeRound disarms the round and releases the updates it buffered.
func (s *Server) closeRound() {
	s.armed = false
	for _, u := range s.buffer.held {
		s.free(u)
	}
	s.buffer.reset()
}

// StreamCount returns how many updates the open round has folded.
func (s *Server) StreamCount() int { return s.count }

// FinishRound closes the round: the screen commits the round's accepted
// norms, the aggregator's result becomes the next global state, and the
// round counter advances.
func (s *Server) FinishRound() error {
	if !s.armed {
		return fmt.Errorf("fl: FinishRound without BeginRound")
	}
	defer s.closeRound()
	s.lastTiming = AggTiming{Screen: s.screenDur}
	if s.screen != nil {
		s.screen.commitRound()
		s.tel.ScreenSeconds.Observe(s.screenDur.Seconds())
		s.screenReports = append(s.screenReports, s.report)
	}
	if s.count == 0 {
		if s.screen != nil && len(s.report.Rejected)+len(s.report.Quarantined) > 0 {
			return fmt.Errorf("fl: round %d: no updates survived screening (%d rejected, %d quarantined)",
				s.round, len(s.report.Rejected), len(s.report.Quarantined))
		}
		return fmt.Errorf("fl: round %d received no updates", s.round)
	}
	start := time.Now()
	next, err := s.agg.Finalize()
	if err != nil {
		return fmt.Errorf("fl: round %d aggregate: %w", s.round, err)
	}
	if len(next) != len(s.state) {
		return fmt.Errorf("fl: defense %q returned %d values, want %d", s.def.Name(), len(next), len(s.state))
	}
	s.lastTiming.Aggregate = s.foldDur + time.Since(start)
	s.tel.AggregateSeconds.Observe(s.lastTiming.Aggregate.Seconds())
	s.tel.RoundsAggregated.Inc()
	if s.meter != nil {
		s.meter.AddServerAgg(s.lastTiming.Aggregate)
		s.meter.SamplePhase(metrics.PhaseAggregate)
	}
	s.state = next
	s.round++
	return nil
}

// AbortRound discards an open round (quorum failure, drain) without
// touching the global state or round counter. Screen offenses booked
// during the round stick — an offense is an offense even if the round
// never finalizes — but its accepted norms are dropped.
func (s *Server) AbortRound() {
	if s.screen != nil {
		s.screen.abortRound()
	}
	s.count = 0
	s.closeRound()
}
