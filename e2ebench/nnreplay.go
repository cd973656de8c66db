package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// nnKinds are the layer kinds the per-layer nn metrics are declared for.
var nnKinds = []string{"dense", "dense_act", "conv2d", "batchnorm", "act", "pool", "flatten"}

// layerKind names the nn metric kind of a top-level layer.
func layerKind(l nn.Layer) (string, error) {
	switch v := l.(type) {
	case *nn.Dense:
		if v.Act == nn.ActNone {
			return "dense", nil
		}
		return "dense_act", nil
	case *nn.Conv2D:
		return "conv2d", nil
	case *nn.BatchNorm:
		return "batchnorm", nil
	case *nn.ReLU, *nn.Tanh:
		return "act", nil
	case *nn.MaxPool2D, *nn.MaxPool1D, *nn.AvgPool2D, *nn.GlobalAvgPool:
		return "pool", nil
	case *nn.Flatten:
		return "flatten", nil
	}
	return "", fmt.Errorf("layer %s has no declared nn metric kind", l.Name())
}

// gemmShape is one matrix product an nn layer runs: (m×k)·(k×n) in the
// named phase.
type gemmShape struct {
	Phase   string
	M, K, N int
}

// gemmShapes returns the products a layer runs for input x: the training
// forward, the weight gradient and the input gradient, or the inference
// forward when train is false.
func gemmShapes(l nn.Layer, x *tensor.Tensor, train bool) []gemmShape {
	var m, k, n int
	switch v := l.(type) {
	case *nn.Dense:
		m, k, n = x.Dim(0), v.In, v.Out
	case *nn.Conv2D:
		oh, ow := v.OutSize(x.Dim(2), x.Dim(3))
		m, k, n = x.Dim(0)*oh*ow, v.InC*v.KH*v.KW, v.OutC
	default:
		return nil
	}
	if !train {
		return []gemmShape{{"infer", m, k, n}}
	}
	return []gemmShape{
		{"fwd", m, k, n},
		{"bwd_weight", n, m, k},
		{"bwd_input", m, n, k},
	}
}

// replayInput is one workload's local epoch to replay layer by layer.
type replayInput struct {
	model *nn.Model // cloned, never trained in place
	train *data.Dataset
	eval  *data.Dataset
	batch int // training batch size
	// evalBatch is the batch size of the workload's eval-mode forwards.
	evalBatch int
	opt       optim.Optimizer
	seed      int64
}

// replayEpoch trains one local epoch on a clone of in.model, calling each
// layer's Forward and Backward separately at the real batch size
// (including the last partial batch) and timing each call, then runs one
// inference pass over in.eval the same way. It fills the nn and optim
// metrics and prints the GEMM-shape histogram.
func replayEpoch(in replayInput, lm layerMetrics, log io.Writer) error {
	m := in.model.Clone()
	layers := m.Layers()
	kinds := make([]string, len(layers))
	for i, l := range layers {
		k, err := layerKind(l)
		if err != nil {
			return err
		}
		kinds[i] = k
	}
	fwd := make(map[string]time.Duration)
	bwd := make(map[string]time.Duration)
	inf := make(map[string]time.Duration)
	hist := make(map[gemmShape]int)
	var step time.Duration
	var batches int
	params, grads := m.Params(), m.Grads()
	var loss nn.SoftmaxCrossEntropy
	in.opt.Reset()
	err := in.train.Batches(in.batch, rand.New(rand.NewSource(in.seed)), func(x *tensor.Tensor, y []int) error {
		for i, l := range layers {
			for _, g := range gemmShapes(l, x, true) {
				hist[g]++
			}
			start := time.Now()
			x = l.Forward(x, true)
			fwd[kinds[i]] += time.Since(start)
		}
		res, err := loss.Eval(x, y)
		if err != nil {
			return err
		}
		g := res.Grad
		for i := len(layers) - 1; i >= 0; i-- {
			start := time.Now()
			g = layers[i].Backward(g)
			bwd[kinds[i]] += time.Since(start)
		}
		start := time.Now()
		in.opt.Step(params, grads)
		step += time.Since(start)
		batches++
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay epoch: %w", err)
	}
	err = in.eval.Batches(in.evalBatch, nil, func(x *tensor.Tensor, _ []int) error {
		for i, l := range layers {
			for _, g := range gemmShapes(l, x, false) {
				hist[g]++
			}
			start := time.Now()
			x = l.Forward(x, false)
			inf[kinds[i]] += time.Since(start)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay inference: %w", err)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, k := range nnKinds {
		lm["nn."+k+".fwd_ms"] = ms(fwd[k])
		lm["nn."+k+".bwd_ms"] = ms(bwd[k])
		lm["nn."+k+".infer_ms"] = ms(inf[k])
	}
	lm["nn.batches"] = float64(batches)
	lm["optim.step_ms"] = ratio(ms(step), float64(batches))
	calls := 0
	for _, c := range hist {
		calls += c
	}
	lm["nn.gemm_shapes"] = float64(len(hist))
	lm["nn.gemm_calls"] = float64(calls)
	printGEMMHistogram(log, hist)
	return nil
}

// noReplay fills the nn and optim metrics of a workload that trains no
// model.
func noReplay(lm layerMetrics) {
	for _, k := range nnKinds {
		lm["nn."+k+".fwd_ms"], lm["nn."+k+".bwd_ms"], lm["nn."+k+".infer_ms"] = 0, 0, 0
	}
	lm["nn.batches"], lm["optim.step_ms"], lm["nn.gemm_shapes"], lm["nn.gemm_calls"] = 0, 0, 0, 0
}

// printGEMMHistogram prints one line per distinct product, most calls
// first.
func printGEMMHistogram(w io.Writer, hist map[gemmShape]int) {
	shapes := make([]gemmShape, 0, len(hist))
	for s := range hist {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool {
		a, b := shapes[i], shapes[j]
		if hist[a] != hist[b] {
			return hist[a] > hist[b]
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.M != b.M {
			return a.M < b.M
		}
		if a.K != b.K {
			return a.K < b.K
		}
		return a.N < b.N
	})
	for _, s := range shapes {
		fmt.Fprintf(w, "gemm phase=%-10s m=%-6d k=%-6d n=%-6d calls=%d\n", s.Phase, s.M, s.K, s.N, hist[s])
	}
}
