package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	dinar "repro"
	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/telemetry"
)

// tcpConfig is the dinar_tcp_celeba workload: the paper's deployment path
// (DINAR defense, Adagrad, VGG11 on CelebA) over loopback TCP with the
// binary wire, flate, int8 quantization, delta broadcasts, streaming
// aggregation and a pipelined durable checkpoint chain.
type tcpConfig struct {
	Dataset     string  `json:"dataset"`
	Defense     string  `json:"defense"`
	Optimizer   string  `json:"optimizer"`
	LR          float64 `json:"learning_rate"`
	Records     int     `json:"records"`
	Clients     int     `json:"clients"`
	Rounds      int     `json:"rounds"`
	LocalEpochs int     `json:"local_epochs"`
	BatchSize   int     `json:"batch_size"`
	Seed        int64   `json:"seed"`
	Compress    bool    `json:"compress"`
	Quantize    string  `json:"quantize"`
	Delta       bool    `json:"delta"`
	Streaming   bool    `json:"streaming"`
	Pipeline    bool    `json:"pipeline"`
}

type tcpWorkload struct {
	cfg tcpConfig

	// Golden outputs of the dinar middleware at the same config.
	goldServer  string
	goldClients []string
	goldAcc     []float64

	last *tcpRun // the latest traced iteration (for the replay)
}

// tcpRun is one iteration's federation inputs.
type tcpRun struct {
	split    *data.FLSplit
	trainers []*fl.Client
	defs     []fl.Defense
	srv      *flnet.Server
	reg      *telemetry.Registry
	wire     *wireCounters
	ckptDir  string
}

func newTCP(seed int64) *tcpWorkload {
	return &tcpWorkload{cfg: tcpConfig{
		Dataset: "celeba", Defense: "dinar", Optimizer: "adagrad",
		LR:      fl.DefaultLearningRate("celeba", "adagrad"),
		Records: 1200, Clients: 2, Rounds: 10, LocalEpochs: 1, BatchSize: 32, Seed: seed,
		Compress: true, Quantize: "int8", Delta: true, Streaming: true, Pipeline: true,
	}}
}

func (w *tcpWorkload) config() any { return w.cfg }

func (w *tcpWorkload) middlewareConfig() dinar.Config {
	return dinar.Config{
		Dataset: w.cfg.Dataset, Defense: w.cfg.Defense, Optimizer: w.cfg.Optimizer,
		LearningRate: w.cfg.LR, Records: w.cfg.Records, Clients: w.cfg.Clients,
		Rounds: w.cfg.Rounds, LocalEpochs: w.cfg.LocalEpochs, BatchSize: w.cfg.BatchSize,
		Seed: w.cfg.Seed,
	}
}

// prepare runs the same federation through dinar.NewMiddlewareServer and
// dinar.RunMiddlewareClient; its final digests are the golden outputs.
func (w *tcpWorkload) prepare(ctx context.Context, b *bench) error {
	dir := filepath.Join(b.work, "golden")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := w.middlewareConfig()
	srv, err := dinar.NewMiddlewareServer(dinar.ServerOptions{
		Addr: "127.0.0.1:0", Config: cfg, Streaming: w.cfg.Streaming, Compress: w.cfg.Compress,
		Quantize: w.cfg.Quantize, Delta: w.cfg.Delta, Pipeline: w.cfg.Pipeline,
		CheckpointPath: filepath.Join(dir, "server.ckpt"),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*dinar.ParticipantResult, w.cfg.Clients)
	errs := make([]error, w.cfg.Clients+1)
	var final []float64
	var wg sync.WaitGroup
	wg.Add(w.cfg.Clients + 1)
	go func() {
		defer wg.Done()
		final, errs[w.cfg.Clients] = srv.Serve(ctx)
	}()
	for i := 0; i < w.cfg.Clients; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = dinar.RunMiddlewareClient(ctx, dinar.ClientOptions{
				Addr: srv.Addr(), Config: cfg, ClientID: i,
			})
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("golden federation: %w", err)
	}
	w.goldServer = digest(final)
	w.goldClients = make([]string, w.cfg.Clients)
	w.goldAcc = make([]float64, w.cfg.Clients)
	for i, r := range results {
		w.goldClients[i] = digest(r.FinalGlobalState)
		w.goldAcc[i] = r.Accuracy
	}
	fmt.Fprintf(b.log, "golden: dinar middleware final-model digest %s, personalized accuracy %v\n",
		w.goldServer, w.goldAcc)
	return nil
}

// setup builds one iteration's inputs exactly as the dinar middleware
// does: the clients' data split and shards (RunMiddlewareClient), the
// server's initial model and bound defense (NewMiddlewareServer), and a
// bound listener.
func (w *tcpWorkload) setup(b *bench, s *seams, it int) (*tcpRun, error) {
	tr := s.tr
	sp := s.root.Load()
	spec, err := data.Lookup(w.cfg.Dataset)
	if err != nil {
		return nil, err
	}
	spec.Records = w.cfg.Records
	g := tr.begin("data.generate", sp)
	ds, err := data.Generate(spec, w.cfg.Seed)
	tr.end(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(w.cfg.Seed + 1))
	run := &tcpRun{split: data.NewFLSplit(ds, rng)}
	shards, err := data.PartitionIID(run.split.Train, w.cfg.Clients, rng)
	if err != nil {
		return nil, err
	}
	build := func() (*nn.Model, error) {
		m := tr.begin("model.build", sp)
		defer tr.end(m)
		return model.Build(spec, rand.New(rand.NewSource(w.cfg.Seed+2)))
	}
	newDefense := func(m *nn.Model) (fl.Defense, error) {
		def, err := defense.New(w.cfg.Defense, w.cfg.Seed+7, w.cfg.Clients)
		if err != nil {
			return nil, err
		}
		if def, err = fl.WithAggregator(def, "", 0); err != nil {
			return nil, err
		}
		if err := def.Bind(fl.InfoOf(m)); err != nil {
			return nil, err
		}
		return wrapDefense(def, s), nil
	}
	for i := 0; i < w.cfg.Clients; i++ {
		m, err := build()
		if err != nil {
			return nil, err
		}
		opt := optim.New(w.cfg.Optimizer, w.cfg.LR)
		if opt == nil {
			return nil, fmt.Errorf("unknown optimizer %q", w.cfg.Optimizer)
		}
		trainer, err := fl.NewClient(i, m, shards[i], opt, w.cfg.BatchSize, w.cfg.LocalEpochs,
			rand.New(rand.NewSource(w.cfg.Seed+100+int64(i))))
		if err != nil {
			return nil, err
		}
		def, err := newDefense(m)
		if err != nil {
			return nil, err
		}
		run.trainers = append(run.trainers, trainer)
		run.defs = append(run.defs, def)
	}
	sm, err := build()
	if err != nil {
		return nil, err
	}
	sdef, err := newDefense(sm)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	run.ckptDir = filepath.Join(b.work, fmt.Sprintf("tcp-%d-%d", it, time.Now().UnixNano()))
	if err := os.MkdirAll(run.ckptDir, 0o755); err != nil {
		ln.Close()
		return nil, err
	}
	run.wire = &wireCounters{timed: tr != nil}
	run.reg = telemetry.NewRegistry()
	run.srv, err = flnet.NewServer(flnet.ServerConfig{
		NumClients:        w.cfg.Clients,
		Rounds:            w.cfg.Rounds,
		SampleSeedDefault: w.cfg.Seed,
		Streaming:         w.cfg.Streaming,
		Compress:          w.cfg.Compress,
		Quantize:          w.cfg.Quantize,
		Delta:             w.cfg.Delta,
		QuantSeedDefault:  w.cfg.Seed,
		Pipeline:          w.cfg.Pipeline,
		Defense:           sdef,
		InitialState:      sm.StateVector(),
		CheckpointPath:    filepath.Join(run.ckptDir, "server.ckpt"),
		Dataset:           w.cfg.Dataset,
		Listener:          &countingListener{Listener: ln, w: run.wire},
		Registry:          run.reg,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	return run, nil
}

func (w *tcpWorkload) iterate(ctx context.Context, b *bench, s *seams, it int) (iteration, error) {
	var out iteration
	tr := s.tr
	setupStart, setupCPU0 := time.Now(), cpuTime()
	sp := tr.begin("setup", 0)
	s.root.Store(sp)
	run, err := w.setup(b, s, it)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(run.ckptDir)
	defer run.srv.Close()
	out.setup, out.setupCPU = time.Since(setupStart), cpuTime()-setupCPU0
	reconnects0 := telemetry.Default().Counter("dinar_flnet_client_reconnects_total", "").Value()

	root := tr.begin("bench.iteration", 0)
	s.root.Store(root)
	start, cpu0 := time.Now(), cpuTime()
	bd := newBoundaries()
	defer bd.close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := w.cfg.Clients
	finals := make([][]float64, n)
	errs := make([]error, n)
	var final []float64
	var srvErr error
	var wg sync.WaitGroup
	wg.Add(n + 1)
	go func() {
		defer wg.Done()
		final, srvErr = run.srv.Run(ctx)
	}()
	addr := run.srv.Addr().String()
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			finals[i], errs[i] = flnet.RunClient(ctx, flnet.ClientConfig{
				Addr: addr, Trainer: run.trainers[i], Defense: run.defs[i], AfterRound: bd.mark,
			})
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(b.log, "client %d failed: %v\n", i, err)
		}
	}
	if srvErr != nil {
		failed++
		fmt.Fprintf(b.log, "server failed: %v\n", srvErr)
	}
	if got := digest(final); got != w.goldServer {
		failed++
		fmt.Fprintf(b.log, "check failed: final-model digest %s, golden %s\n", got, w.goldServer)
	}
	for i, f := range finals {
		if got := digest(f); got != w.goldClients[i] {
			failed++
			fmt.Fprintf(b.log, "check failed: client %d final digest %s, golden %s\n", i, got, w.goldClients[i])
		}
	}
	out.peakHeap = bd.close()
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	tr.end(root)

	if it == 0 {
		// Personalization check, outside the timed region: each client's
		// private-layer-restored model must score exactly as the
		// middleware client's did.
		for i, t := range run.trainers {
			acc, _, err := t.Evaluate(run.split.Test)
			if err != nil {
				return out, err
			}
			if acc != w.goldAcc[i] {
				failed++
				fmt.Fprintf(b.log, "check failed: client %d personalized accuracy %v, golden %v\n", i, acc, w.goldAcc[i])
			}
		}
	}
	failed += serverFigures(&out, run.srv, run.wire, run.reg, run.ckptDir, n, len(final), s)
	expected := n * w.cfg.Rounds
	out.tally = tally{expected: expected, failed: expected - out.updates + failed}
	out.periods, out.cpuPeriods = bd.periods()
	for _, t := range run.trainers {
		out.trainSamples += t.Data.Len() * w.cfg.LocalEpochs * w.cfg.Rounds
	}
	out.layer["fl.updates_offered"] = float64(expected)
	out.layer["flnet.reconnects"] = float64(telemetry.Default().Counter("dinar_flnet_client_reconnects_total", "").Value() - reconnects0)
	if tr != nil {
		w.last = run
	}
	return out, nil
}

func (w *tcpWorkload) layers(b *bench, its []iteration, _ *seams) (layerMetrics, error) {
	lm := layerMetrics{}
	serverLayers(lm, its)
	if w.last == nil {
		return nil, fmt.Errorf("tcp: no traced iteration to replay")
	}
	t := w.last.trainers[0]
	return lm, replayEpoch(replayInput{
		model: t.Model, train: t.Data, eval: w.last.split.Test, batch: w.cfg.BatchSize,
		evalBatch: w.cfg.BatchSize, // fl.Client.Evaluate's batch
		opt:       optim.New(w.cfg.Optimizer, w.cfg.LR), seed: w.cfg.Seed,
	}, lm, b.log)
}
