// Command e2ebench is the repository's end-to-end benchmark. It drives the
// DINAR federation through the public functions of the repro modules,
// times and counts those calls itself, checks every output, and prints
// one JSON result line. See README.md for the workloads, the metrics, and
// how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// runTimeout bounds one run; hardDeadline kills a run whose goroutines
// ignore cancellation.
const (
	runTimeout   = 165 * time.Second
	hardDeadline = 175 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	root := fs.String("root", ".", "checkout root holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "e2ebench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: -seconds must be positive\n")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	work, err := newWorkDir(*root, *name)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	kill := time.AfterFunc(hardDeadline, func() {
		fmt.Fprintf(stderr, "e2ebench: run exceeded %v; aborting\n", hardDeadline)
		os.RemoveAll(work)
		os.Exit(3)
	})
	defer kill.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	b := &bench{root: *root, work: work, seed: *seed, seconds: *seconds, log: stdout}
	fmt.Fprintf(stdout, "e2ebench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traced)
	prov, err := json.Marshal(newProvenance(*root, *name, *seed, w.config()))
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)

	var res *result
	if *traced == 1 {
		res, err = runTraced(ctx, b, w, *name, spec)
	} else {
		res, err = runUntraced(ctx, b, w, spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "e2ebench: %s: %d of %d operations failed their checks\n", *name, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runUntraced measures the end-to-end metrics with no trace seams.
func runUntraced(ctx context.Context, b *bench, w workload, spec *benchSpec) (*result, error) {
	if err := w.prepare(ctx, b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	host0 := hostCPU()
	its, err := measure(ctx, b, w, newSeams(nil), b.budget())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(b.log, hostShares(host0, hostCPU()))
	vals, notes := endToEnd(its)
	gated, rest := splitDeclared(vals, spec.EndToEnd)
	ms, err := assemble(spec.EndToEnd, gated)
	if err != nil {
		return nil, err
	}
	printMetrics(b.log, ms, notes)
	units := make(map[string]string)
	for _, d := range spec.PerLayer {
		units[d.Name] = d.Unit
	}
	restMs := make(map[string]metric)
	for n, v := range rest {
		restMs[n] = metric{Value: v, Unit: units[n]}
	}
	fmt.Fprintln(b.log, "wall clock and throughput (reported without a bound; traced runs record these as per-layer metrics):")
	printMetrics(b.log, restMs, notes)
	t := totals(its)
	return &result{Correct: t.failed == 0, Attempted: t.expected, Failed: t.failed, Metrics: ms}, nil
}

// runTraced spends half the budget untraced and half traced. Per-layer
// metrics come from the traced half; the untraced half supplies the
// overhead baseline and the throughput figures that must not carry
// tracing cost. Both halves check every output against the same reference,
// so a traced digest that differs from the untraced one fails the run.
func runTraced(ctx context.Context, b *bench, w workload, name string, spec *benchSpec) (*result, error) {
	if err := w.prepare(ctx, b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	host0 := hostCPU()
	plain, err := measure(ctx, b, w, newSeams(nil), b.budget()/2)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", name, b.seed, time.Now().UnixNano()))
	s := newSeams(tr)
	inline0, chunks0 := poolCounters()
	traced, err := measure(ctx, b, w, s, b.budget()/2)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	inline1, chunks1 := poolCounters()
	fmt.Fprintln(b.log, hostShares(host0, hostCPU()))

	lm, err := w.layers(b, traced, s)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	spanLayerMetrics(lm, spans, len(traced))
	lm["parallel.inline_fallback_frac"] = ratio(float64(inline1-inline0), float64(chunks1-chunks0))
	plainVals, _ := endToEnd(plain)
	tracedVals, _ := endToEnd(traced)
	_, rest := splitDeclared(plainVals, spec.EndToEnd)
	// A workload that trains no model or uses no wire has no such figure.
	lm["train_samples_per_s"], lm["bytes_per_round"] = 0, 0
	for n, v := range rest {
		lm[n] = v
	}
	lm["trace.overhead_s"] = tracedVals["wall_s"] - plainVals["wall_s"]
	lm["trace.overhead_cpu_s"] = tracedVals["cpu_s"] - plainVals["cpu_s"]
	ms, err := assemble(spec.PerLayer, lm)
	if err != nil {
		return nil, err
	}
	notes := map[string]string{
		"trace.overhead_s": fmt.Sprintf("traced wall %.4f s − untraced %.4f s",
			tracedVals["wall_s"], plainVals["wall_s"]),
		"trace.overhead_cpu_s": fmt.Sprintf("traced CPU %.4f s − untraced %.4f s",
			tracedVals["cpu_s"], plainVals["cpu_s"]),
	}
	printMetrics(b.log, ms, notes)
	path := filepath.Join(b.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "trace: %d spans of %d traced iterations written to %s\n", len(spans), len(traced), path)
	t := totals(plain)
	t.add(totals(traced))
	return &result{Correct: t.failed == 0, Attempted: t.expected, Failed: t.failed, Metrics: ms}, nil
}

// splitDeclared separates the values of the declared metrics from the
// rest.
func splitDeclared(vals map[string]float64, decl []specMetric) (declared, rest map[string]float64) {
	declared, rest = make(map[string]float64), make(map[string]float64)
	for n, v := range vals {
		rest[n] = v
	}
	for _, d := range decl {
		if v, ok := rest[d.Name]; ok {
			declared[d.Name] = v
			delete(rest, d.Name)
		}
	}
	return declared, rest
}

func (b *bench) budget() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// selfLayers are the span layers whose self time the traced run reports.
var selfLayers = []string{"setup", "bench", "data", "model", "fl", "core", "leakage", "attack"}

// spanLayerMetrics fills the metrics measured directly by spans: mean
// durations per call, calls per iteration, and per-layer self time per
// iteration.
func spanLayerMetrics(lm layerMetrics, spans []span, iters int) {
	total, count := spanStats(spans)
	mean := func(name string, unit time.Duration) float64 {
		return ratio(float64(total[name])/float64(unit), float64(count[name]))
	}
	perIter := func(v float64) float64 { return v / float64(iters) }
	lm["data.generate_ms"] = mean("data.generate", time.Millisecond)
	lm["model.build_ms"] = mean("model.build", time.Millisecond)
	lm["model.builds"] = perIter(float64(count["model.build"]))
	lm["fl.client_round_ms"] = mean("fl.client_round", time.Millisecond)
	lm["fl.aggregate_ms"] = mean("fl.aggregate", time.Millisecond)
	lm["fl.fold_us"] = mean("fl.fold", time.Microsecond)
	lm["fl.finalize_ms"] = mean("fl.finalize", time.Millisecond)
	lm["core.on_global_us"] = mean("core.on_global", time.Microsecond)
	lm["core.before_upload_us"] = mean("core.before_upload", time.Microsecond)
	lm["core.obfuscate_us"] = mean("core.obfuscate", time.Microsecond)
	lm["leakage.divergence_ms"] = mean("leakage.divergence", time.Millisecond)
	lm["attack.auc_ms"] = mean("attack.auc", time.Millisecond)
	lm["attack.calls"] = perIter(float64(count["attack.auc"]))
	lm["trace.spans"] = perIter(float64(len(spans)))
	self := selfTimes(spans)
	for _, layer := range selfLayers {
		lm["self."+layer+"_ms"] = perIter(float64(self[layer]) / float64(time.Millisecond))
	}
}

// poolCounters reads the compute pool's inline-fallback and chunk
// counters from the process-wide registry.
func poolCounters() (inline, chunks int64) {
	reg := telemetry.Default()
	return reg.Counter("dinar_pool_inline_fallback_total", "").Value(),
		reg.Counter("dinar_pool_chunks_total", "").Value()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("metric %-36s %14.6g %s", n, ms[n].Value, ms[n].Unit)
		if note := notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
}
