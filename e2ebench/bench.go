package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's environment.
type bench struct {
	root    string // checkout root (holds BENCHMARK.json)
	work    string // per-run scratch directory under the checkout
	seed    int64
	seconds float64
	log     io.Writer // human-readable report lines
}

// iteration is one timed job: inputs built (setup), then the workload run
// to a verified result (wall).
type iteration struct {
	setup, wall  time.Duration
	setupCPU     time.Duration   // process CPU time (user+system) during setup
	cpu          time.Duration   // process CPU time during wall
	periods      []time.Duration // round periods at the round-boundary seam
	cpuPeriods   []time.Duration // process CPU time between the same boundaries
	rounds       int
	updates      int // updates aggregated
	trainSamples int // samples trained (shard × local epochs, summed)
	wireBytes    int64
	peakHeap     uint64
	tally        tally
	// layer holds per-layer values measured inside this iteration; the
	// traced pass averages them.
	layer map[string]float64
}

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// config returns the effective workload configuration (hashed into
	// the provenance record).
	config() any
	// prepare computes reference outputs outside every timed region.
	prepare(ctx context.Context, b *bench) error
	// iterate builds the inputs and runs one verified job. A nil tracer
	// in s runs the program unwrapped.
	iterate(ctx context.Context, b *bench, s *seams, it int) (iteration, error)
	// layers returns the workload's per-layer metrics from a traced pass.
	layers(b *bench, its []iteration, s *seams) (layerMetrics, error)
}

// layerMetrics maps per-layer metric names to values; units come from
// BENCHMARK.json.
type layerMetrics map[string]float64

// measure repeats iterate until budget has passed (at least once) and
// returns every iteration. A runtime.GC before each one starts every
// iteration from the same heap state.
func measure(ctx context.Context, b *bench, w workload, s *seams, budget time.Duration) ([]iteration, error) {
	var its []iteration
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC()
		it, err := w.iterate(ctx, b, s, i)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		fmt.Fprintf(b.log, "iteration %d traced=%v setup_s=%.4f wall_s=%.4f cpu_s=%.4f rounds=%d failed=%d\n",
			i, s.tr != nil, it.setup.Seconds(), it.wall.Seconds(), it.cpu.Seconds(), it.rounds, it.tally.failed)
		its = append(its, it)
	}
	return its, nil
}

// endToEnd reduces iterations to the end-to-end figures, with the sample
// counts the report prints beside them. The figures BENCHMARK.json bounds
// are measured on the process CPU clock, which excludes the time a shared
// host's hypervisor takes the CPUs away (steal). The wall-clock and
// throughput figures keep the names the metrics were specified under and
// are reported without a bound; a figure whose layer the workload does not
// exercise (no model trains, no wire) is left out.
func endToEnd(its []iteration) (map[string]float64, map[string]string) {
	var setup, setupCPU, wall, cpu, ups, samples, wire, heap, periods, cpuPeriods []float64
	var t tally
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, it := range its {
		setup = append(setup, it.setup.Seconds())
		setupCPU = append(setupCPU, it.setupCPU.Seconds())
		wall = append(wall, it.wall.Seconds())
		cpu = append(cpu, it.cpu.Seconds())
		ups = append(ups, float64(it.updates)/it.wall.Seconds())
		samples = append(samples, float64(it.trainSamples)/it.wall.Seconds())
		wire = append(wire, ratio(float64(it.wireBytes), float64(it.rounds)))
		heap = append(heap, float64(it.peakHeap)/(1<<20))
		for i, p := range it.periods {
			periods = append(periods, ms(p))
			cpuPeriods = append(cpuPeriods, ms(it.cpuPeriods[i]))
		}
		t.add(it.tally)
	}
	p, _ := tailPercentile(len(periods))
	n := fmt.Sprintf("median of n=%d", len(its))
	rounds := fmt.Sprintf("p50 of n=%d rounds", len(periods))
	failures := fmt.Sprintf("%d of %d expected updates failed", t.failed, t.expected)
	vals := map[string]float64{
		"setup_s":           median(setupCPU),
		"cpu_s":             median(cpu),
		"round_cpu_p50_ms":  percentile(cpuPeriods, 50),
		"round_cpu_tail_ms": percentile(cpuPeriods, p),
		"completed_frac":    1 - t.failedFrac(),
		"peak_heap_mb":      median(heap),
		"setup_wall_s":      median(setup),
		"wall_s":            median(wall),
		"round_p50_ms":      percentile(periods, 50),
		"round_tail_ms":     percentile(periods, p),
		"updates_per_s":     median(ups),
		"failed_frac":       t.failedFrac(),
	}
	notes := map[string]string{
		"setup_s":           n + " setups, CPU time",
		"cpu_s":             n + ", CPU time",
		"round_cpu_p50_ms":  rounds,
		"round_cpu_tail_ms": tailNote(cpuPeriods, p),
		"completed_frac":    failures,
		"peak_heap_mb":      n,
		"setup_wall_s":      n + " setups",
		"wall_s":            n,
		"round_p50_ms":      rounds,
		"round_tail_ms":     tailNote(periods, p),
		"updates_per_s":     n,
		"failed_frac":       failures,
	}
	if median(samples) > 0 {
		vals["train_samples_per_s"], notes["train_samples_per_s"] = median(samples), n
	}
	if median(wire) > 0 {
		vals["bytes_per_round"], notes["bytes_per_round"] = median(wire), n+", both directions"
	}
	return vals, notes
}

// tailNote names the tail percentile and its sample count, and lists the
// distribution's upper percentiles.
func tailNote(xs []float64, p float64) string {
	note := fmt.Sprintf("p%g of n=%d rounds", p, len(xs))
	if _, ok := tailPercentile(len(xs)); !ok {
		note += " (fewer than 20 rounds: median reported)"
	}
	return note + fmt.Sprintf("; p75=%.1f p90=%.1f p95=%.1f p99=%.1f max=%.1f",
		percentile(xs, 75), percentile(xs, 90), percentile(xs, 95), percentile(xs, 99), percentile(xs, 100))
}

// totals sums the iterations' tallies.
func totals(its []iteration) tally {
	var t tally
	for _, it := range its {
		t.add(it.tally)
	}
	return t
}

// meanLayers sets each named metric to its mean over the iterations.
func meanLayers(lm layerMetrics, its []iteration, names ...string) {
	for _, n := range names {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = it.layer[n]
		}
		lm[n] = mean(xs)
	}
}

// zero sets metrics of layers a workload does not exercise.
func zero(lm layerMetrics, names ...string) {
	for _, n := range names {
		lm[n] = 0
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's CPU time so far (user plus system, all
// threads). Unlike wall time it excludes time the host takes the CPUs
// away, so it is the steadier cost figure on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak tracks the highest HeapInuse sampled (objects plus unused
// space in in-use spans, read without stopping the world).
type heapPeak struct{ v atomic.Uint64 }

func (h *heapPeak) sample() {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	inuse := s[0].Value.Uint64() + s[1].Value.Uint64()
	for {
		cur := h.v.Load()
		if inuse <= cur || h.v.CompareAndSwap(cur, inuse) {
			return
		}
	}
}

// boundaries records round-boundary times at a seam, on the wall clock
// and on the process CPU clock: the first arrival for each round counts,
// later arrivals (other clients) are ignored. It also tracks the peak
// HeapInuse, sampled at each boundary and every heapSampleInterval in
// between, until close.
type boundaries struct {
	mu   sync.Mutex
	at   map[int]boundary
	heap heapPeak

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type boundary struct {
	wall time.Time
	cpu  time.Duration
}

// heapSampleInterval spaces the peak-heap samples between boundaries.
// Sampling only at boundaries lands at a random phase of the GC cycle;
// a few hundred samples per iteration find the cycle's top.
const heapSampleInterval = 5 * time.Millisecond

func newBoundaries() *boundaries {
	b := &boundaries{at: make(map[int]boundary), done: make(chan struct{})}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		tick := time.NewTicker(heapSampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-b.done:
				return
			case <-tick.C:
				b.heap.sample()
			}
		}
	}()
	return b
}

// close stops the heap sampler, takes a last sample, and returns the peak
// HeapInuse in bytes. It is safe to call more than once.
func (b *boundaries) close() uint64 {
	b.once.Do(func() {
		close(b.done)
		b.wg.Wait()
		b.heap.sample()
	})
	return b.heap.v.Load()
}

func (b *boundaries) mark(round int) {
	now := boundary{time.Now(), cpuTime()}
	b.mu.Lock()
	_, seen := b.at[round]
	if !seen {
		b.at[round] = now
	}
	b.mu.Unlock()
	if !seen {
		b.heap.sample()
	}
}

// periods returns the wall and CPU intervals between consecutive round
// boundaries.
func (b *boundaries) periods() (wall, cpu []time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rounds := make([]int, 0, len(b.at))
	for r := range b.at {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for i := 1; i < len(rounds); i++ {
		if rounds[i] == rounds[i-1]+1 {
			prev, cur := b.at[rounds[i-1]], b.at[rounds[i]]
			wall = append(wall, cur.wall.Sub(prev.wall))
			cpu = append(cpu, cur.cpu-prev.cpu)
		}
	}
	return wall, cpu
}

// benchSpec is the part of BENCHMARK.json the run checks itself against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// assemble pairs values with the declared metrics. The names must match
// the declaration exactly: a value the spec does not declare, or a
// declared metric without a value, is an error.
func assemble(decl []specMetric, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decl))
	for _, d := range decl {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q declared in BENCHMARK.json was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %q is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// newWorkDir makes the run's scratch directory on the checkout's own
// filesystem (checkpoint chains must hit a real disk, not tmpfs).
func newWorkDir(root, name string) (string, error) {
	base := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
