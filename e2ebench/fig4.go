package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/experiment"
	"repro/internal/fl"
	"repro/internal/leakage"
	"repro/internal/nn"
	"repro/internal/optim"
)

// fig4Config is the fig4_purchase100 workload: the paper's Figure 4
// regeneration on Purchase100 (FCNN-6) at quick scale with the loss attack.
type fig4Config struct {
	Dataset     string `json:"dataset"`
	Records     int    `json:"records"`
	Clients     int    `json:"clients"`
	Rounds      int    `json:"rounds"`
	LocalEpochs int    `json:"local_epochs"`
	BatchSize   int    `json:"batch_size"`
	Seed        int64  `json:"seed"`
	Parallel    bool   `json:"parallel"`
	Attack      string `json:"attack"`
}

type fig4Workload struct {
	cfg fig4Config
	ref string // digest of experiment.Fig4's result

	last *fl.System // the latest traced iteration's system (for the replay)
}

func newFig4(seed int64) *fig4Workload {
	return &fig4Workload{cfg: fig4Config{
		Dataset: "purchase100", Records: 400, Clients: 3, Rounds: 3, LocalEpochs: 2,
		BatchSize: 32, Seed: seed, Parallel: true, Attack: "loss",
	}}
}

func (w *fig4Workload) config() any { return w.cfg }

// options are the experiment.Options that experiment.Fig4 runs with.
func (w *fig4Workload) options() experiment.Options {
	o := experiment.QuickOptions()
	o.Seed, o.Records, o.Clients, o.Rounds = w.cfg.Seed, w.cfg.Records, w.cfg.Clients, w.cfg.Rounds
	o.LocalEpochs, o.BatchSize, o.Parallel = w.cfg.LocalEpochs, w.cfg.BatchSize, w.cfg.Parallel
	o.UseShadowAttack = false
	return o
}

// flConfig is the system config experiment.Fig4 builds for an undefended
// (SGD) run of these options.
func (w *fig4Workload) flConfig() fl.Config {
	return fl.Config{
		Dataset: w.cfg.Dataset, Records: w.cfg.Records, Clients: w.cfg.Clients,
		Rounds: w.cfg.Rounds, LocalEpochs: w.cfg.LocalEpochs, BatchSize: w.cfg.BatchSize,
		LearningRate: fl.DefaultLearningRate(w.cfg.Dataset, "sgd"), Optimizer: "sgd",
		Seed: w.cfg.Seed, Parallel: w.cfg.Parallel,
	}
}

func fig4Digest(r *experiment.Fig4Result) string {
	v := append(append([]float64(nil), r.Divergences...), r.PerLayerAUC...)
	return digest(append(v, r.BaselineAUC, float64(r.MostSensitive))) + "/" + r.Dataset
}

// prepare runs experiment.Fig4 itself; every iteration's decomposed result
// must match it bit for bit.
func (w *fig4Workload) prepare(ctx context.Context, b *bench) error {
	ref, err := experiment.Fig4(ctx, w.options(), w.cfg.Dataset)
	if err != nil {
		return err
	}
	w.ref = fig4Digest(ref)
	fmt.Fprintf(b.log, "reference: experiment.Fig4 digest %s most-sensitive layer %d baseline AUC %.2f%%\n",
		w.ref, ref.MostSensitive, ref.BaselineAUC)
	return nil
}

func (w *fig4Workload) iterate(ctx context.Context, b *bench, s *seams, _ int) (iteration, error) {
	var out iteration
	tr := s.tr
	setupStart, setupCPU0 := time.Now(), cpuTime()
	sp := tr.begin("setup", 0)
	s.root.Store(sp)
	if tr != nil {
		// fl.NewSystem generates the data internally; the traced pass
		// times the same call standalone to report the data layer.
		spec, err := data.Lookup(w.cfg.Dataset)
		if err != nil {
			return out, err
		}
		spec.Records = w.cfg.Records
		g := tr.begin("data.generate", sp)
		_, err = data.Generate(spec, w.cfg.Seed)
		tr.end(g)
		if err != nil {
			return out, err
		}
	}
	def, err := defense.New("none", w.cfg.Seed+7, w.cfg.Clients)
	if err != nil {
		return out, err
	}
	sys, err := fl.NewSystem(w.flConfig(), wrapDefense(def, s))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.setup, out.setupCPU = time.Since(setupStart), cpuTime()-setupCPU0

	root := tr.begin("bench.iteration", 0)
	start, cpu0 := time.Now(), cpuTime()
	bd := newBoundaries()
	defer bd.close()
	bd.mark(-1)
	var updates []*fl.Update
	var screenMs []float64
	for r := 0; r < w.cfg.Rounds; r++ {
		rs := tr.begin("fl.round", root)
		s.root.Store(rs)
		updates, err = sys.RunRound(ctx)
		tr.end(rs)
		if err != nil {
			return out, err
		}
		bd.mark(r)
		screenMs = append(screenMs, float64(sys.Server.LastAggTiming().Screen)/float64(time.Millisecond))
	}
	s.root.Store(root)
	fin := tr.begin("fl.finalize_clients", root)
	err = sys.FinalizeClients()
	tr.end(fin)
	if err != nil {
		return out, err
	}
	res, err := w.analyze(sys, updates, s, root)
	if err != nil {
		return out, err
	}
	ok := fig4Digest(res) == w.ref
	out.peakHeap = bd.close()
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	tr.end(root)

	folded := 0
	for _, rep := range sys.Server.ScreenReports() {
		folded += len(rep.Accepted)
	}
	expected := w.cfg.Clients * w.cfg.Rounds
	out.tally = tally{expected: expected, failed: expected - folded}
	if !ok {
		out.tally.failed++
		fmt.Fprintf(b.log, "check failed: decomposed fig4 digest %s, experiment.Fig4 %s\n", fig4Digest(res), w.ref)
	}
	out.periods, out.cpuPeriods = bd.periods()
	out.rounds = w.cfg.Rounds
	out.updates = folded
	for _, c := range sys.Clients {
		out.trainSamples += c.Data.Len() * w.cfg.LocalEpochs * w.cfg.Rounds
	}
	out.layer = map[string]float64{
		"fl.updates_offered": float64(expected),
		"fl.updates_folded":  float64(folded),
		"fl.screen_ms":       mean(screenMs),
	}
	if tr != nil {
		w.last = sys
	}
	return out, nil
}

// analyze is the analysis half of experiment.Fig4, call for call: leakage
// divergence of the global model, the unprotected local-model AUC
// (experiment.LocalAUC for an undefended run), and the single-layer
// obfuscation sweep.
func (w *fig4Workload) analyze(sys *fl.System, updates []*fl.Update, s *seams, root int64) (*experiment.Fig4Result, error) {
	tr := s.tr
	spec := sys.Spec()
	atk := attack.NewLossAttack()
	auc := func(m *nn.Model, members *data.Dataset) (float64, error) {
		sp := tr.begin("attack.auc", root)
		defer tr.end(sp)
		return atk.AUC(m, members, sys.Split.Test)
	}
	fromState := func(state []float64, seed int64) (*nn.Model, error) {
		sp := tr.begin("model.build", root)
		defer tr.end(sp)
		return experiment.ModelFromState(spec, state, seed)
	}

	globalModel, err := fromState(sys.Server.GlobalState(), 41)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("leakage.divergence", root)
	div, err := leakage.NewAnalyzer().LayerDivergence(globalModel, sys.Split.Train, sys.Split.Test)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	sum := 0.0
	for _, u := range updates {
		m, err := fromState(u.State, 998)
		if err != nil {
			return nil, err
		}
		a, err := auc(m, sys.Shards[u.ClientID])
		if err != nil {
			return nil, err
		}
		sum += a
	}
	baseline := sum / float64(len(updates))

	info := globalModel.Spans()
	perLayer := make([]float64, len(info))
	for l := range info {
		sum := 0.0
		for i, u := range updates {
			state := append([]float64(nil), u.State...)
			rng := rand.New(rand.NewSource(w.cfg.Seed + int64(l*100+i)))
			sp := tr.begin("core.obfuscate", root)
			err := core.Obfuscate(state, info[l], core.ObfuscateGaussian, rng)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("fig4 layer %d: %w", l, err)
			}
			m, err := fromState(state, 42)
			if err != nil {
				return nil, err
			}
			a, err := auc(m, sys.Shards[i])
			if err != nil {
				return nil, err
			}
			sum += a
		}
		perLayer[l] = sum / float64(len(updates)) * 100
	}
	return &experiment.Fig4Result{
		Dataset:       w.cfg.Dataset,
		Divergences:   div,
		PerLayerAUC:   perLayer,
		BaselineAUC:   100 * baseline,
		MostSensitive: leakage.MostSensitiveLayer(div),
	}, nil
}

func (w *fig4Workload) layers(b *bench, its []iteration, _ *seams) (layerMetrics, error) {
	lm := layerMetrics{}
	meanLayers(lm, its, "fl.updates_offered", "fl.updates_folded", "fl.screen_ms")
	lm["fl.folded_frac"] = ratio(lm["fl.updates_folded"], lm["fl.updates_offered"])
	// No network, no checkpoints: the flnet and checkpoint layers are not
	// on this workload's path.
	zero(lm, "flnet.bytes_up_per_update", "flnet.bytes_down_per_client_round", "flnet.compression_ratio",
		"flnet.read_blocked_ms", "flnet.write_blocked_ms", "flnet.evictions", "flnet.reconnects",
		"flnet.broadcast_ms", "checkpoint.bytes_per_gen", "checkpoint.tail_ms", "checkpoint.stall_ms")
	if w.last == nil {
		return nil, fmt.Errorf("fig4: no traced iteration to replay")
	}
	c := w.last.Clients[0]
	return lm, replayEpoch(replayInput{
		model: c.Model, train: c.Data, eval: w.last.Split.Test, batch: w.cfg.BatchSize,
		evalBatch: attack.NewLossAttack().BatchSize, // the sweep's eval-mode forwards
		opt:       optim.New("sgd", fl.DefaultLearningRate(w.cfg.Dataset, "sgd")), seed: w.cfg.Seed,
	}, lm, b.log)
}
