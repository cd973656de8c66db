package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/defense"
	"repro/internal/fl"
	"repro/internal/fleetsim"
	"repro/internal/flnet"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// fleetConfig is the fleet_fold workload: the server-side round path with
// no nn work. Synthetic fleetsim clients upload Purchase100-sized states
// over the in-memory listener as raw binary frames; the server folds them
// in streaming mode behind the screen and writes a pipelined durable
// checkpoint chain.
type fleetConfig struct {
	Dataset   string `json:"dataset"` // sizes the state (its model's state length)
	Clients   int    `json:"clients"`
	Rounds    int    `json:"rounds"`
	Seed      int64  `json:"seed"`
	Caps      uint32 `json:"client_caps"`
	Streaming bool   `json:"streaming"`
	Pipeline  bool   `json:"pipeline"`
}

type fleetWorkload struct {
	cfg fleetConfig
	ref string // digest of the materialized aggregate of the last round

	// corrupt, when set, rewrites a client's upload before it is sent;
	// tests use it to doctor the federation's output.
	corrupt func(id, round int, state []float64)
}

func newFleet(seed int64) *fleetWorkload {
	return &fleetWorkload{cfg: fleetConfig{
		Dataset: "purchase100", Clients: 2, Rounds: 20, Seed: seed,
		Caps: flnet.ClientCaps, Streaming: true, Pipeline: true,
	}}
}

func (w *fleetWorkload) config() any { return w.cfg }

// fleetWeight is fleetsim's default NumSamples for client id.
func fleetWeight(id int) int { return 1 + id%7 }

// prepare computes the expected final state outside the timed region: a
// materialized fl.Server.Aggregate, behind the same default screen, over
// the last round's fleetsim.SynthState updates. FedAvg of full states
// does not depend on the previous global, so this is the federation's
// final model.
func (w *fleetWorkload) prepare(_ context.Context, b *bench) error {
	init, err := w.initialState(newSeams(nil))
	if err != nil {
		return err
	}
	srv, err := fl.NewServer(init, defense.NewNone(), nil)
	if err != nil {
		return err
	}
	srv.SetScreen(fl.NewScreen(fl.ScreenConfig{}))
	last := w.cfg.Rounds - 1
	srv.SetRound(last)
	updates := make([]*fl.Update, w.cfg.Clients)
	for id := range updates {
		updates[id] = &fl.Update{
			ClientID: id, Round: last, NumSamples: fleetWeight(id),
			State: fleetsim.SynthState(w.cfg.Seed, id, last, len(init), nil),
		}
	}
	if err := srv.Aggregate(updates); err != nil {
		return err
	}
	w.ref = digest(srv.GlobalState())
	fmt.Fprintf(b.log, "reference: materialized aggregate of round %d, %d values, digest %s\n", last, len(init), w.ref)
	return nil
}

// initialState builds the Purchase100 model whose state the synthetic
// updates replace.
func (w *fleetWorkload) initialState(s *seams) ([]float64, error) {
	spec, err := data.Lookup(w.cfg.Dataset)
	if err != nil {
		return nil, err
	}
	sp := s.tr.begin("model.build", s.root.Load())
	m, err := model.Build(spec, rand.New(rand.NewSource(w.cfg.Seed+2)))
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return m.StateVector(), nil
}

func (w *fleetWorkload) iterate(ctx context.Context, b *bench, s *seams, it int) (iteration, error) {
	var out iteration
	tr := s.tr
	setupStart, setupCPU0 := time.Now(), cpuTime()
	sp := tr.begin("setup", 0)
	s.root.Store(sp)
	init, err := w.initialState(s)
	if err != nil {
		return out, err
	}
	def := defense.NewNone()
	if err := def.Bind(fl.ModelInfo{NumParams: len(init), NumState: len(init)}); err != nil {
		return out, err
	}
	dir := filepath.Join(b.work, fmt.Sprintf("fleet-%d-%d", it, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	mem := fleetsim.Listen(w.cfg.Clients)
	wire := &wireCounters{timed: tr != nil}
	reg := telemetry.NewRegistry()
	srv, err := flnet.NewServer(flnet.ServerConfig{
		NumClients:     w.cfg.Clients,
		Rounds:         w.cfg.Rounds,
		Streaming:      w.cfg.Streaming,
		Pipeline:       w.cfg.Pipeline,
		Defense:        wrapDefense(def, s),
		InitialState:   init,
		CheckpointPath: filepath.Join(dir, "server.ckpt"),
		Dataset:        w.cfg.Dataset,
		Listener:       &countingListener{Listener: mem, w: wire},
		Registry:       reg,
	})
	tr.end(sp)
	if err != nil {
		mem.Close()
		return out, err
	}
	defer srv.Close()
	out.setup, out.setupCPU = time.Since(setupStart), cpuTime()-setupCPU0

	root := tr.begin("bench.iteration", 0)
	s.root.Store(root)
	start, cpu0 := time.Now(), cpuTime()
	bd := newBoundaries()
	defer bd.close()
	fleet := &fleetsim.Fleet{
		N: w.cfg.Clients, Dim: len(init), Seed: w.cfg.Seed, Caps: w.cfg.Caps, Dial: mem.Dial,
		Mutate: func(id, round int, state []float64) {
			bd.mark(round)
			if w.corrupt != nil {
				w.corrupt(id, round, state)
			}
		},
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var final []float64
	var srvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		final, srvErr = srv.Run(ctx)
		if srvErr != nil {
			cancel()
		}
	}()
	stats := fleet.Run(ctx)
	wg.Wait()
	failed := int(stats.GaveUp.Load())
	if srvErr != nil {
		failed++
		fmt.Fprintf(b.log, "server failed: %v\n", srvErr)
	}
	if got := digest(final); got != w.ref {
		failed++
		fmt.Fprintf(b.log, "check failed: final state digest %s, materialized aggregate %s\n", got, w.ref)
	}
	out.peakHeap = bd.close()
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	tr.end(root)

	failed += serverFigures(&out, srv, wire, reg, dir, w.cfg.Clients, len(init), s)
	expected := w.cfg.Clients * w.cfg.Rounds
	out.tally = tally{expected: expected, failed: expected - out.updates + failed}
	out.periods, out.cpuPeriods = bd.periods()
	out.layer["fl.updates_offered"] = float64(stats.Updates.Load())
	out.layer["flnet.reconnects"] = float64(stats.Rejoins.Load())
	return out, nil
}

func (w *fleetWorkload) layers(_ *bench, its []iteration, _ *seams) (layerMetrics, error) {
	lm := layerMetrics{}
	serverLayers(lm, its)
	// Synthetic clients train nothing: the nn and optim layers are not on
	// this workload's path.
	noReplay(lm)
	return lm, nil
}
