package main

import (
	"bytes"
	"context"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/metrics"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		note string
	}{
		{0, 50, false, "n=0"},
		{19, 50, false, "n=19"},
		{20, 50, true, "p50 of n=20"},
		{39, 50, true, "p50 of n=39"},
		{40, 75, true, "p75 of n=40"},
		{100, 90, true, "p90 of n=100"},
		{199, 90, true, "p90 of n=199"},
		{200, 95, true, "p95 of n=200"},
		{1000, 99, true, "p99 of n=1000"},
		{10000, 99.9, true, "p99.9 of n=10000"},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
		// The reported note names the percentile and the sample count.
		it := iteration{wall: time.Second}
		for i := 0; i < c.n; i++ {
			it.periods = append(it.periods, time.Duration(i+1)*time.Millisecond)
			it.cpuPeriods = append(it.cpuPeriods, time.Duration(2*(i+1))*time.Millisecond)
		}
		vals, notes := endToEnd([]iteration{it})
		if !strings.Contains(notes["round_tail_ms"], c.note) {
			t.Errorf("n=%d: tail note %q does not contain %q", c.n, notes["round_tail_ms"], c.note)
		}
		if c.n > 0 {
			if want := float64(rank(c.p, c.n)); vals["round_tail_ms"] != want || vals["round_cpu_tail_ms"] != 2*want {
				t.Errorf("n=%d: round_tail_ms = %v, round_cpu_tail_ms = %v, want %v and %v",
					c.n, vals["round_tail_ms"], vals["round_cpu_tail_ms"], want, 2*want)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	var total tally
	// Two updates never aggregated plus one failed output check.
	total.add(tally{expected: 10, failed: 3})
	total.add(tally{expected: 10, failed: 0})
	if total.expected != 20 || total.failed != 3 {
		t.Fatalf("tally = %+v, want 20 expected, 3 failed", total)
	}
	if got := total.failedFrac(); got != 0.15 {
		t.Errorf("failedFrac = %v, want 0.15", got)
	}
	vals, _ := endToEnd([]iteration{
		{wall: time.Second, tally: tally{expected: 10, failed: 3}},
		{wall: time.Second, tally: tally{expected: 10}},
	})
	if got := vals["completed_frac"]; math.Abs(got-0.85) > 1e-12 {
		t.Errorf("completed_frac = %v, want 0.85", got)
	}
	if got := vals["failed_frac"]; got != 0.15 {
		t.Errorf("failed_frac = %v, want 0.15", got)
	}
	if got := (tally{}).failedFrac(); got != 1 {
		t.Errorf("empty tally failedFrac = %v, want 1 (nothing expected must not look clean)", got)
	}
	if got := (tally{expected: 2, failed: 5}).failedFrac(); got != 1 {
		t.Errorf("over-counted failedFrac = %v, want clamp to 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fl.client_round", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "fl.client_round", Start: 20, End: 50}, // overlaps 2
		{ID: 4, Parent: 1, Name: "fl.fold", Start: 60, End: 70},
		{ID: 5, Parent: 2, Name: "core.on_global", Start: 10, End: 15},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"bench": 50, "fl": 15 + 30 + 10, "core": 5}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], d)
		}
	}
}

func TestDigestIsBitExact(t *testing.T) {
	a := []float64{1, -0.5, 3.25}
	b := append([]float64(nil), a...)
	if digest(a) != digest(b) {
		t.Fatal("equal states digest differently")
	}
	b[1] = math.Float64frombits(math.Float64bits(b[1]) ^ 1)
	if digest(a) == digest(b) {
		t.Fatal("a one-bit change kept the digest")
	}
}

func TestAssembleRejectsUndeclaredAndMissing(t *testing.T) {
	decl := []specMetric{{"a", "s"}, {"b", "ms"}}
	if _, err := assemble(decl, map[string]float64{"a": 1}); err == nil {
		t.Error("a declared metric without a value was accepted")
	}
	if _, err := assemble(decl, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	ms, err := assemble(decl, map[string]float64{"a": 1, "b": 2})
	if err != nil || ms["b"].Unit != "ms" {
		t.Errorf("assemble = %v, %v", ms, err)
	}
}

// fakeDefense implements every optional interface the program asserts.
type fakeDefense struct{ defense.None }

func (fakeDefense) SetRoundCohort(int, []int)                {}
func (fakeDefense) SetMeter(*metrics.CostMeter)              {}
func (fakeDefense) ExportStore(int) map[int][]float64        { return nil }
func (fakeDefense) ImportStore(int, map[int][]float64) error { return nil }

// bareDefense implements none of them.
type bareDefense struct{}

func (bareDefense) Name() string                                              { return "bare" }
func (bareDefense) Bind(fl.ModelInfo) error                                   { return nil }
func (bareDefense) OnGlobalModel(_, _ int, g []float64) []float64             { return g }
func (bareDefense) BeforeUpload(int, []float64, *fl.Update)                   {}
func (bareDefense) Aggregate(int, []float64, []*fl.Update) ([]float64, error) { return nil, nil }

func TestWrapDefenseForwardsExactlyTheInnerInterfaces(t *testing.T) {
	inners := []fl.Defense{bareDefense{}, &fakeDefense{}}
	for _, name := range defense.ExtendedNames {
		def, err := defense.New(name, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		inners = append(inners, def)
	}
	s := newSeams(newTracer("test"))
	for _, inner := range inners {
		w := wrapDefense(inner, s)
		if got, want := defenseMask(w), defenseMask(inner); got != want {
			t.Errorf("%s: wrapper implements interface mask %b, inner %b", inner.Name(), got, want)
		}
		if w.Name() != inner.Name() {
			t.Errorf("wrapper renamed %s to %s", inner.Name(), w.Name())
		}
		if sc, ok := w.(fl.StreamingCapable); ok {
			agg, inAgg := sc.StreamingAggregator(), fl.StreamingOf(inner)
			if (agg == nil) != (inAgg == nil) {
				t.Errorf("%s: wrapped streaming aggregator nil=%v, inner nil=%v", inner.Name(), agg == nil, inAgg == nil)
			}
		}
	}
	// Untraced runs must execute the unwrapped program.
	if _, plain := wrapDefense(defense.NewNone(), newSeams(nil)).(*defense.None); !plain {
		t.Error("wrapDefense wrapped a defense without a tracer")
	}
}

func TestWrapAggregatorForwardsOptionalInterfaces(t *testing.T) {
	s := newSeams(newTracer("test"))
	for _, inner := range []fl.StreamingAggregator{fl.NewStreamingFedAvg(), fl.NewStreamingNormBound(2)} {
		w := wrapAggregator(inner, s)
		_, memW := w.(memoryReporter)
		_, memI := inner.(memoryReporter)
		_, normW := w.(fl.NormCarrier)
		_, normI := inner.(fl.NormCarrier)
		if memW != memI || normW != normI {
			t.Errorf("%s: wrapper MemoryBytes=%v NormCarrier=%v, inner %v %v", inner.Name(), memW, normW, memI, normI)
		}
	}
	// A wrapped fold produces the inner aggregator's exact result.
	prev := []float64{0, 0}
	plain, traced := fl.NewStreamingFedAvg(), wrapAggregator(fl.NewStreamingFedAvg(), s)
	for _, a := range []fl.StreamingAggregator{plain, traced} {
		a.Begin(0, prev)
		for id, st := range [][]float64{{1, 2}, {3, 5}} {
			if err := a.Fold(&fl.Update{ClientID: id, State: st, NumSamples: id + 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, _ := plain.Finalize()
	q, _ := traced.Finalize()
	if digest(p) != digest(q) {
		t.Errorf("wrapped fold %v differs from plain %v", q, p)
	}
	if s.folded.Load() != 2 {
		t.Errorf("folded = %d, want 2", s.folded.Load())
	}
}

// smallWorkloads returns every workload shrunk to test size.
func smallWorkloads() map[string]workload {
	f := newFig4(3)
	f.cfg.Records, f.cfg.Clients, f.cfg.Rounds, f.cfg.LocalEpochs = 200, 2, 2, 1
	c := newTCP(3)
	c.cfg.Records, c.cfg.Rounds = 300, 2
	l := newFleet(3)
	l.cfg.Rounds = 3
	return map[string]workload{"fig4_purchase100": f, "dinar_tcp_celeba": c, "fleet_fold": l}
}

func testBench(t *testing.T) (*bench, *benchSpec, *bytes.Buffer) {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	return &bench{root: t.TempDir(), work: t.TempDir(), seed: 3, seconds: 0.001, log: &log}, spec, &log
}

func metricNames(ms map[string]metric) []string {
	var out []string
	for n := range ms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func declaredNames(decl []specMetric) []string {
	var out []string
	for _, d := range decl {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsPrintDeclaredMetrics runs every workload at test size,
// untraced and traced: each run must pass its output checks and print
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(declared, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames())
	}
	for name, w := range smallWorkloads() {
		t.Run(name, func(t *testing.T) {
			b, spec, log := testBench(t)
			ctx := context.Background()
			res, err := runUntraced(ctx, b, w, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced result %+v\n%s", res, log)
			}
			if got, want := metricNames(res.Metrics), declaredNames(spec.EndToEnd); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("end-to-end metrics %v, declared %v", got, want)
			}
			for n, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", n)
				}
			}
			res, err = runTraced(ctx, b, w, name, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced result %+v\n%s", res, log)
			}
			if got, want := metricNames(res.Metrics), declaredNames(spec.PerLayer); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("per-layer metrics %v, declared %v", got, want)
			}
		})
	}
}

// TestDoctoredOutputFailsCheck flips one bit of one upload in the last
// round: the federation's final state then differs from the materialized
// aggregate, and the run must report the failure and exit non-zero.
func TestDoctoredOutputFailsCheck(t *testing.T) {
	b, spec, log := testBench(t)
	w := newFleet(5)
	w.cfg.Rounds = 2
	w.corrupt = func(id, round int, state []float64) {
		if id == 1 && round == w.cfg.Rounds-1 {
			state[7] = math.Float64frombits(math.Float64bits(state[7]) ^ 1)
		}
	}
	res, err := runUntraced(context.Background(), b, w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("doctored run passed its check: %+v\n%s", res, log)
	}
	if !strings.Contains(log.String(), "check failed") {
		t.Errorf("no check-failure line in the report:\n%s", log)
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet_fold", "--trace", "2"},
		{"--workload", "fleet_fold", "--seconds", "0"},
		{"--workload", "fleet_fold", "--root", t.TempDir()}, // no BENCHMARK.json
	} {
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a rejected invocation printed a result:\n%s", out.String())
	}
}
