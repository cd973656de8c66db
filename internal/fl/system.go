package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/parallel"
)

// Config describes a complete in-process FL experiment.
type Config struct {
	// Dataset names a registered dataset spec (internal/data.Registry).
	Dataset string
	// Records overrides the spec's default record count when > 0.
	Records int
	// Clients is the number of FL participants (paper: 5, or 10 for
	// Purchase100).
	Clients int
	// Rounds is the number of FL rounds.
	Rounds int
	// LocalEpochs is the number of local epochs per round (paper: 5, or 10
	// for Purchase100).
	LocalEpochs int
	// BatchSize is the local mini-batch size (paper: 64).
	BatchSize int
	// LearningRate is the client learning rate (paper: 1e-3; our scaled
	// models use larger rates, set per experiment).
	LearningRate float64
	// Optimizer names the client optimizer: sgd, adagrad, adam, adamax,
	// rmsprop, adgd. DINAR uses adagrad.
	Optimizer string
	// DirichletAlpha controls the non-IID partition; +Inf (or 0, the zero
	// value, treated as +Inf) means IID.
	DirichletAlpha float64
	// Participation is the fraction of clients selected each round in
	// (0, 1]; 0 (the zero value) means full participation, the paper's
	// setting.
	Participation float64
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Parallel trains clients concurrently when true.
	Parallel bool
	// Aggregator selects the server-side aggregation rule ("fedavg",
	// "median", "trimmed-mean", "krum", "multi-krum", "norm-bound"); empty
	// means the defense's own rule (FedAvg for most defenses).
	Aggregator string
	// MaxByzantine is the assumed number of malicious clients f the robust
	// aggregator must tolerate (Krum family tolerance, trimmed-mean trim).
	MaxByzantine int
	// NoScreen disables the server's update screen. By default every
	// round's updates are validated (shape, NaN/Inf) and offenders are
	// quarantined before the defense aggregates.
	NoScreen bool
}

// withDefaults fills unset fields with the paper's §5.3 defaults, scaled.
func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 5
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.01
	}
	if c.Optimizer == "" {
		c.Optimizer = "sgd"
	}
	if c.DirichletAlpha == 0 {
		c.DirichletAlpha = math.Inf(1)
	}
	if c.Participation == 0 {
		c.Participation = 1
	}
	return c
}

// System is an assembled in-process federation: one server, N clients, the
// shared defense, and the data splits needed for evaluation and attacks.
type System struct {
	Config  Config
	Server  *Server
	Clients []*Client
	Defense Defense
	Meter   *metrics.CostMeter

	// Split holds the attacker/train/test pools (paper §5.1 protocol).
	Split *data.FLSplit
	// Shards holds each client's training shard (aligned with Clients).
	Shards []*data.Dataset

	spec data.Spec
}

// NewSystem generates data, partitions it, builds per-client models, and
// wires the defense. The same Seed yields a bit-identical system.
func NewSystem(cfg Config, def Defense) (*System, error) {
	cfg = cfg.withDefaults()
	if def == nil {
		return nil, fmt.Errorf("fl: nil defense (use defense.None for the baseline)")
	}
	def, err := WithAggregator(def, cfg.Aggregator, cfg.MaxByzantine)
	if err != nil {
		return nil, err
	}
	spec, err := data.Lookup(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	if cfg.Records > 0 {
		spec.Records = cfg.Records
	}
	ds, err := data.Generate(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	split := data.NewFLSplit(ds, rng)

	var shards []*data.Dataset
	if math.IsInf(cfg.DirichletAlpha, 1) {
		shards, err = data.PartitionIID(split.Train, cfg.Clients, rng)
	} else {
		shards, err = data.PartitionDirichlet(split.Train, cfg.Clients, cfg.DirichletAlpha, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("fl: partition: %w", err)
	}

	meter := metrics.NewCostMeter()
	clients := make([]*Client, cfg.Clients)
	var info ModelInfo
	var initState []float64
	var base *nn.Model
	for i := range clients {
		// Every client starts from the same initial model (identical seed),
		// so build it once and deep-clone for the rest: bit-identical
		// parameters, unshared layer workspaces.
		var m *nn.Model
		if i == 0 {
			m, err = model.Build(spec, rand.New(rand.NewSource(cfg.Seed+2)))
			if err != nil {
				return nil, fmt.Errorf("fl: build model: %w", err)
			}
			base = m
			info = InfoOf(m)
			initState = m.StateVector()
		} else {
			m = base.Clone()
		}
		opt := optim.New(cfg.Optimizer, cfg.LearningRate)
		if opt == nil {
			return nil, fmt.Errorf("fl: unknown optimizer %q", cfg.Optimizer)
		}
		c, err := NewClient(i, m, shards[i], opt, cfg.BatchSize, cfg.LocalEpochs,
			rand.New(rand.NewSource(cfg.Seed+100+int64(i))))
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	if err := def.Bind(info); err != nil {
		return nil, fmt.Errorf("fl: bind defense %q: %w", def.Name(), err)
	}
	// Wire the cost meter into defenses that account extra buffer memory
	// (Table 3's third metric).
	if metered, ok := def.(interface{ SetMeter(*metrics.CostMeter) }); ok {
		metered.SetMeter(meter)
	}
	server, err := NewServer(initState, def, meter)
	if err != nil {
		return nil, err
	}
	if !cfg.NoScreen {
		server.SetScreen(NewScreen(ScreenConfig{}))
	}
	return &System{
		Config:  cfg,
		Server:  server,
		Clients: clients,
		Defense: def,
		Meter:   meter,
		Split:   split,
		Shards:  shards,
		spec:    spec,
	}, nil
}

// Spec returns the dataset spec the system was built with (after Records
// override).
func (s *System) Spec() data.Spec { return s.spec }

// selectClients returns the round's participating clients: all of them at
// full participation, otherwise a deterministic per-round sample of
// ceil(Participation·N) clients.
func (s *System) selectClients(round int) []*Client {
	n := len(s.Clients)
	if s.Config.Participation >= 1 {
		return s.Clients
	}
	k := int(math.Ceil(s.Config.Participation * float64(n)))
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(s.Config.Seed ^ int64(round+1)<<16 ^ 0x5e1ec7))
	perm := rng.Perm(n)
	selected := make([]*Client, k)
	for i := 0; i < k; i++ {
		selected[i] = s.Clients[perm[i]]
	}
	return selected
}

// RunRound executes one FL round across the round's selected clients and
// aggregates. It returns the round's client updates (post-defense, i.e.
// exactly what a server-side attacker observes).
func (s *System) RunRound(ctx context.Context) ([]*Update, error) {
	round := s.Server.Round()
	global := s.Server.GlobalState()
	participants := s.selectClients(round)
	updates := make([]*Update, len(participants))

	if s.Config.Parallel {
		// Clients train concurrently on the shared compute pool: the pool
		// bounds client-level concurrency at Workers(), and the matmul /
		// im2col fan-outs inside each client draw from the same token
		// bucket, so a 50-client round no longer schedules
		// 50×GOMAXPROCS compute goroutines. Errors land in an indexed
		// slice and the lowest-index one wins, deterministically.
		errs := make([]error, len(participants))
		parallel.For(len(participants), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				updates[i], errs[i] = participants[i].RunRound(round, global, s.Defense, s.Meter)
			}
		})
		if err := firstError(errs); err != nil {
			return nil, err
		}
	} else {
		for i, c := range participants {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			u, err := c.RunRound(round, global, s.Defense, s.Meter)
			if err != nil {
				return nil, err
			}
			updates[i] = u
		}
	}
	if err := s.Server.Aggregate(updates); err != nil {
		return nil, err
	}
	return updates, nil
}

// Run executes cfg.Rounds rounds and returns the updates of the final round.
func (s *System) Run(ctx context.Context) ([]*Update, error) {
	var last []*Update
	for r := 0; r < s.Config.Rounds; r++ {
		updates, err := s.RunRound(ctx)
		if err != nil {
			return nil, err
		}
		last = updates
	}
	return last, nil
}

// firstError returns the lowest-index non-nil error of an indexed error
// slice — the deterministic "first error wins" rule shared by the
// pool-parallel client loops.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FinalizeClients delivers the final global model to every client through the
// defense's download path (so DINAR clients end personalized), leaving each
// client's model in its prediction-ready state. Call after Run and before
// evaluating client utility. Clients are finalized concurrently on the
// shared compute pool; on failure the lowest-index error is returned.
func (s *System) FinalizeClients() error {
	round := s.Server.Round()
	global := s.Server.GlobalState()
	errs := make([]error, len(s.Clients))
	parallel.For(len(s.Clients), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := s.Clients[i]
			state := s.Defense.OnGlobalModel(c.ID, round, global)
			errs[i] = c.Install(state)
		}
	})
	return firstError(errs)
}

// MeanClientAccuracy evaluates every client's personalized model on ds and
// returns the average accuracy — the paper's "overall model utility metric"
// (Appendix A). Clients are evaluated concurrently on the shared compute
// pool; per-client accuracies land in an indexed slice and are summed in
// client order, so the result is bit-identical to the serial loop, and on
// failure the lowest-index error is returned.
func (s *System) MeanClientAccuracy(ds *data.Dataset) (float64, error) {
	accs := make([]float64, len(s.Clients))
	errs := make([]error, len(s.Clients))
	parallel.For(len(s.Clients), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			accs[i], _, errs[i] = s.Clients[i].Evaluate(ds)
		}
	})
	if err := firstError(errs); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, acc := range accs {
		sum += acc
	}
	return sum / float64(len(s.Clients)), nil
}
