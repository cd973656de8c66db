package main

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fl"
	"repro/internal/metrics"
)

// seams is the shared state of one run's trace wrappers: the tracer, the
// span every seam hangs off (the current iteration), the open per-client
// round spans, and counts taken where the work happens.
type seams struct {
	tr   *tracer
	root atomic.Int64

	mu      sync.Mutex
	clients map[int]int64

	folded atomic.Int64
}

func newSeams(tr *tracer) *seams {
	return &seams{tr: tr, clients: make(map[int]int64)}
}

func (s *seams) setClientSpan(id int, sp int64) {
	s.mu.Lock()
	s.clients[id] = sp
	s.mu.Unlock()
}

func (s *seams) clientSpan(id int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clients[id]
}

// tracedDefense times the DINAR hooks of an fl.Defense. OnGlobalModel
// opens the client's fl.client_round span and BeforeUpload closes it: the
// two hooks are the first and last calls of fl.Client.RunRound, and the
// networked client has no other seam around its round.
type tracedDefense struct {
	inner fl.Defense
	s     *seams
}

func (d *tracedDefense) Name() string                 { return d.inner.Name() }
func (d *tracedDefense) Bind(info fl.ModelInfo) error { return d.inner.Bind(info) }

func (d *tracedDefense) OnGlobalModel(clientID, round int, global []float64) []float64 {
	parent := d.s.tr.begin("fl.client_round", d.s.root.Load())
	d.s.setClientSpan(clientID, parent)
	sp := d.s.tr.begin("core.on_global", parent)
	out := d.inner.OnGlobalModel(clientID, round, global)
	d.s.tr.end(sp)
	return out
}

func (d *tracedDefense) BeforeUpload(round int, global []float64, u *fl.Update) {
	parent := d.s.clientSpan(u.ClientID)
	sp := d.s.tr.begin("core.before_upload", parent)
	d.inner.BeforeUpload(round, global, u)
	d.s.tr.end(sp)
	d.s.tr.end(parent)
}

func (d *tracedDefense) Aggregate(round int, prev []float64, updates []*fl.Update) ([]float64, error) {
	sp := d.s.tr.begin("fl.aggregate", d.s.root.Load())
	defer d.s.tr.end(sp)
	return d.inner.Aggregate(round, prev, updates)
}

// The optional interfaces the program type-asserts on a Defense. Each
// mixin forwards one of them; wrapDefense composes exactly the set the
// inner defense implements, so a type assertion on the wrapper answers as
// it would on the inner defense.
type (
	streamMixin struct{ d *tracedDefense }
	cohortMixin struct{ d *tracedDefense }
	meterMixin  struct{ d *tracedDefense }
	storeMixin  struct{ d *tracedDefense }
)

// privateStore is the private-layer store surface middleware checkpoints.
type privateStore interface {
	ExportStore(clientID int) map[int][]float64
	ImportStore(clientID int, layers map[int][]float64) error
}

type meterSetter interface{ SetMeter(*metrics.CostMeter) }

func (m streamMixin) StreamingAggregator() fl.StreamingAggregator {
	agg := m.d.inner.(fl.StreamingCapable).StreamingAggregator()
	if agg == nil {
		return nil
	}
	return wrapAggregator(agg, m.d.s)
}

func (m cohortMixin) SetRoundCohort(round int, cohort []int) {
	m.d.inner.(fl.CohortAware).SetRoundCohort(round, cohort)
}

func (m meterMixin) SetMeter(meter *metrics.CostMeter) {
	m.d.inner.(meterSetter).SetMeter(meter)
}

func (m storeMixin) ExportStore(clientID int) map[int][]float64 {
	return m.d.inner.(privateStore).ExportStore(clientID)
}

func (m storeMixin) ImportStore(clientID int, layers map[int][]float64) error {
	return m.d.inner.(privateStore).ImportStore(clientID, layers)
}

const (
	hasStream = 1 << iota
	hasCohort
	hasMeter
	hasStore
)

// wrapDefense returns inner behind trace seams. With a nil tracer it
// returns inner itself, so untraced runs execute the unwrapped program.
func wrapDefense(inner fl.Defense, s *seams) fl.Defense {
	if s.tr == nil {
		return inner
	}
	d := &tracedDefense{inner: inner, s: s}
	st, co, me, sto := streamMixin{d}, cohortMixin{d}, meterMixin{d}, storeMixin{d}
	switch defenseMask(inner) {
	case hasStream:
		return struct {
			*tracedDefense
			streamMixin
		}{d, st}
	case hasCohort:
		return struct {
			*tracedDefense
			cohortMixin
		}{d, co}
	case hasMeter:
		return struct {
			*tracedDefense
			meterMixin
		}{d, me}
	case hasStore:
		return struct {
			*tracedDefense
			storeMixin
		}{d, sto}
	case hasStream | hasCohort:
		return struct {
			*tracedDefense
			streamMixin
			cohortMixin
		}{d, st, co}
	case hasStream | hasMeter:
		return struct {
			*tracedDefense
			streamMixin
			meterMixin
		}{d, st, me}
	case hasStream | hasStore:
		return struct {
			*tracedDefense
			streamMixin
			storeMixin
		}{d, st, sto}
	case hasCohort | hasMeter:
		return struct {
			*tracedDefense
			cohortMixin
			meterMixin
		}{d, co, me}
	case hasCohort | hasStore:
		return struct {
			*tracedDefense
			cohortMixin
			storeMixin
		}{d, co, sto}
	case hasMeter | hasStore:
		return struct {
			*tracedDefense
			meterMixin
			storeMixin
		}{d, me, sto}
	case hasStream | hasCohort | hasMeter:
		return struct {
			*tracedDefense
			streamMixin
			cohortMixin
			meterMixin
		}{d, st, co, me}
	case hasStream | hasCohort | hasStore:
		return struct {
			*tracedDefense
			streamMixin
			cohortMixin
			storeMixin
		}{d, st, co, sto}
	case hasStream | hasMeter | hasStore:
		return struct {
			*tracedDefense
			streamMixin
			meterMixin
			storeMixin
		}{d, st, me, sto}
	case hasCohort | hasMeter | hasStore:
		return struct {
			*tracedDefense
			cohortMixin
			meterMixin
			storeMixin
		}{d, co, me, sto}
	case hasStream | hasCohort | hasMeter | hasStore:
		return struct {
			*tracedDefense
			streamMixin
			cohortMixin
			meterMixin
			storeMixin
		}{d, st, co, me, sto}
	}
	return d
}

// defenseMask reports which optional interfaces def implements.
func defenseMask(def fl.Defense) int {
	mask := 0
	if _, ok := def.(fl.StreamingCapable); ok {
		mask |= hasStream
	}
	if _, ok := def.(fl.CohortAware); ok {
		mask |= hasCohort
	}
	if _, ok := def.(meterSetter); ok {
		mask |= hasMeter
	}
	if _, ok := def.(privateStore); ok {
		mask |= hasStore
	}
	return mask
}

// tracedAgg times a StreamingAggregator's Fold (one fl.fold span per
// update) and Finalize (fl.finalize), and counts successful folds.
type tracedAgg struct {
	inner fl.StreamingAggregator
	s     *seams
}

func (a *tracedAgg) Name() string                    { return a.inner.Name() }
func (a *tracedAgg) Begin(round int, prev []float64) { a.inner.Begin(round, prev) }

func (a *tracedAgg) Fold(u *fl.Update) error {
	sp := a.s.tr.begin("fl.fold", a.s.root.Load())
	err := a.inner.Fold(u)
	a.s.tr.end(sp)
	if err == nil {
		a.s.folded.Add(1)
	}
	return err
}

func (a *tracedAgg) Finalize() ([]float64, error) {
	sp := a.s.tr.begin("fl.finalize", a.s.root.Load())
	defer a.s.tr.end(sp)
	return a.inner.Finalize()
}

// The optional interfaces the program type-asserts on a streaming
// aggregator, forwarded the same way as the defense mixins.
type (
	memoryMixin struct{ a *tracedAgg }
	normsMixin  struct{ a *tracedAgg }
)

type memoryReporter interface{ MemoryBytes() int }

func (m memoryMixin) MemoryBytes() int { return m.a.inner.(memoryReporter).MemoryBytes() }

func (m normsMixin) ExportNorms() []float64 { return m.a.inner.(fl.NormCarrier).ExportNorms() }
func (m normsMixin) ImportNorms(norms []float64) {
	m.a.inner.(fl.NormCarrier).ImportNorms(norms)
}

func wrapAggregator(inner fl.StreamingAggregator, s *seams) fl.StreamingAggregator {
	a := &tracedAgg{inner: inner, s: s}
	_, mem := inner.(memoryReporter)
	_, norms := inner.(fl.NormCarrier)
	switch {
	case mem && norms:
		return struct {
			*tracedAgg
			memoryMixin
			normsMixin
		}{a, memoryMixin{a}, normsMixin{a}}
	case mem:
		return struct {
			*tracedAgg
			memoryMixin
		}{a, memoryMixin{a}}
	case norms:
		return struct {
			*tracedAgg
			normsMixin
		}{a, normsMixin{a}}
	}
	return a
}

// wireCounters counts the bytes crossing the server's connections and,
// when timed, how long the server spent inside Read and Write calls.
type wireCounters struct {
	timed           bool
	rx, tx          atomic.Int64
	readNs, writeNs atomic.Int64
}

// countingListener wraps the server's listener so every accepted
// connection is counted.
type countingListener struct {
	net.Listener
	w *wireCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, w: l.w}, nil
}

// SetDeadline forwards the accept deadline the server sets during
// registration.
func (l *countingListener) SetDeadline(t time.Time) error {
	d, ok := l.Listener.(interface{ SetDeadline(time.Time) error })
	if !ok {
		return errors.New("e2ebench: listener has no SetDeadline")
	}
	return d.SetDeadline(t)
}

type countingConn struct {
	net.Conn
	w *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	var start time.Time
	if c.w.timed {
		start = time.Now()
	}
	n, err := c.Conn.Read(p)
	if c.w.timed {
		c.w.readNs.Add(int64(time.Since(start)))
	}
	c.w.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	var start time.Time
	if c.w.timed {
		start = time.Now()
	}
	n, err := c.Conn.Write(p)
	if c.w.timed {
		c.w.writeNs.Add(int64(time.Since(start)))
	}
	c.w.tx.Add(int64(n))
	return n, err
}
