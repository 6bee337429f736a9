package main

import (
	"fmt"

	"coarse/internal/chaos"
	"coarse/internal/core"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/paramserver"
	"coarse/internal/serve"
	"coarse/internal/sim"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// A cell is one simulation the benchmark runs: a training run (train.New
// then Trainer.Run) or a serving run (serve.New then Sim.Run). Exactly
// one of newTrain and newServe is set; both build the cell's inputs from
// the workload seed.
type cell struct {
	id string
	// seeded marks a cell whose simulated outputs depend on the seed (a
	// chaos profile, the MoE router, a serving trace). Its outputs are
	// pinned at defaultSeed only; unseeded cells are pinned at every seed.
	seeded bool
	// chaos marks a cell that must open at least one fault window.
	chaos bool
	// module is the package of the cell's synchronization strategy
	// ("core", "paramserver" or "train"), or "serve".
	module string
	// iters is a training cell's iteration count.
	iters    int
	newTrain func(seed int64) (train.Config, train.Strategy)
	newServe func(seed int64) serve.Config
}

// A workload is a fixed, ordered cell set run serially. Why each one
// exists is recorded in BENCHMARK.json and BASELINE.md.
type workload struct {
	name string
	// smallest indexes the cheapest cell, the one the self-test runs.
	smallest int
	cells    func() []cell
}

// defaultSeed is the seed the pinned outputs were recorded at.
const defaultSeed = 1

var workloads = []workload{
	{
		name:     "paper",
		smallest: 7,
		cells:    paperCells,
	},
	{
		name:     "rackscale",
		smallest: 0,
		cells:    rackscaleCells,
	},
	{
		name:     "serve",
		smallest: 0,
		cells:    serveCells,
	},
	{
		name:     "layouts",
		smallest: 2,
		cells:    layoutCells,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// strategyModule maps a strategy name to the package implementing it.
func strategyModule(name string) string {
	switch name {
	case "COARSE":
		return "core"
	case "DENSE", "CentralPS":
		return "paramserver"
	}
	return "train"
}

// newStrategy builds a named strategy. shards > 0 selects the sharded
// rack-scale variants (COARSE then runs its whole parameter space through
// the memory devices); 0 keeps each design's defaults.
func newStrategy(name string, shards int) train.Strategy {
	switch name {
	case "DENSE":
		d := paramserver.NewDENSE()
		d.Shards = shards
		return d
	case "CentralPS":
		p := paramserver.NewCentralPS()
		p.Shards = shards
		return p
	case "AllReduce":
		return train.NewAllReduce()
	case "COARSE":
		o := core.DefaultOptions()
		if shards > 0 {
			o.Shards = shards
			o.MFraction = 1
		}
		return core.New(o)
	}
	panic("perfbench: unknown strategy " + name)
}

// trainCell builds a training cell on train.DefaultConfig; tweak, when
// non-nil, adjusts the config after the seed is set.
func trainCell(id string, spec func() topology.Spec, m func() *model.Model, batch, iters int,
	strategy string, shards int, tweak func(*train.Config)) cell {
	return cell{
		id:     id,
		module: strategyModule(strategy),
		iters:  iters,
		newTrain: func(seed int64) (train.Config, train.Strategy) {
			cfg := train.DefaultConfig(spec(), m(), batch, iters)
			cfg.Seed = seed
			if tweak != nil {
				tweak(&cfg)
			}
			return cfg, newStrategy(strategy, shards)
		},
	}
}

// paperIters is the paper workload's iteration count, the CLI default.
const paperIters = 4

func paperCells() []cell {
	panels := []struct {
		spec  func() topology.Spec
		label string
		model func() *model.Model
		name  string
		batch int
	}{
		{topology.AWST4, "T4", model.ResNet50, "ResNet50", 64},
		{topology.AWST4, "T4", model.BERTBase, "BERT", 2},
		{topology.SDSCP100, "P100", model.BERTBase, "BERT", 2},
		{topology.AWSV100, "V100", model.BERTBase, "BERT", 2},
	}
	var cells []cell
	for _, p := range panels {
		for _, s := range []string{"DENSE", "AllReduce", "COARSE"} {
			id := fmt.Sprintf("paper/%s/%s/b%d/%s", p.label, p.name, p.batch, s)
			cells = append(cells, trainCell(id, p.spec, p.model, p.batch, paperIters, s, 0, nil))
		}
	}
	// The multi-node pair runs under a seeded fault profile: short link
	// degradation, CCI brownout and worker stall windows spread over the
	// whole run, so the fabric re-shares on capacity changes as well as
	// on flow arrivals. Many small windows keep the host cost of the
	// cells close to the same from seed to seed.
	multiNode := func() topology.Spec { return topology.MultiNodeV100(4) }
	for _, s := range []string{"AllReduce", "COARSE"} {
		c := trainCell("paper/V100x4/BERT/b2/"+s+"/chaos", multiNode, model.BERTBase, 2, paperIters, s, 0,
			func(cfg *train.Config) {
				cfg.Chaos = &chaos.Spec{Profile: &chaos.Profile{
					Intensity:     0.15,
					Horizon:       sim.Seconds(1.2),
					FaultsPerKind: 8,
				}}
			})
		c.seeded, c.chaos = true, true
		cells = append(cells, c)
	}
	return cells
}

const (
	rackscaleIters  = 2
	rackscaleShards = 4
	rackscaleBatch  = 4 // per worker: weak scaling
)

// rackscaleMachine is the weak-scaling machine for a worker count: 4
// GPUs per node, 4 nodes per rack, two rack-attached CCI devices per
// rack (at least 8), 2:1 oversubscribed spine.
func rackscaleMachine(workers int) func() topology.Spec {
	return func() topology.Spec {
		racks := workers / 16
		devs := 2 * racks
		if devs < 8 {
			devs = 8
		}
		return topology.ScaleSpec{
			Racks:        racks,
			NodesPerRack: 4,
			GPUsPerNode:  4,
			MemDevs:      devs,
			MemDevTier:   topology.TierRack,
			Oversub:      2,
		}.Generate()
	}
}

// synthModel is a stack of eight uniform dense layers of layerElems
// float32 parameters each, with explicit per-sample FLOPs.
func synthModel(name string, layerElems int) func() *model.Model {
	return func() *model.Model {
		m := &model.Model{Name: name}
		for i := 0; i < 8; i++ {
			m.Layers = append(m.Layers, model.Layer{
				Name:       fmt.Sprintf("dense%d", i),
				ParamElems: layerElems,
				FwdFLOPs:   2.0e9,
				ActBytes:   1 << 20,
			})
		}
		return m
	}
}

func rackscaleCells() []cell {
	var cells []cell
	for _, w := range []int{256, 512} {
		for _, s := range []string{"DENSE", "CentralPS", "COARSE"} {
			id := fmt.Sprintf("rackscale/w%d/k%d/%s", w, rackscaleShards, s)
			cells = append(cells, trainCell(id, rackscaleMachine(w), synthModel("synth16M", 512*1024),
				rackscaleBatch, rackscaleIters, s, rackscaleShards, nil))
		}
	}
	return cells
}

// serveRequests is the length of each serving cell's request trace.
const serveRequests = 144

func serveCells() []cell {
	var cells []cell
	for _, rate := range []float64{28, 48} {
		for _, kv := range []serve.KVPlacement{serve.KVLocal, serve.KVPooled} {
			rate, kv := rate, kv
			cells = append(cells, cell{
				id:     fmt.Sprintf("serve/V100/BERT/poisson/r%.0f/%s/n%d", rate, kv, serveRequests),
				seeded: true,
				module: "serve",
				newServe: func(seed int64) serve.Config {
					cfg := serve.DefaultConfig(topology.AWSV100(), model.BERTBase(),
						serve.Workload{Arrival: serve.Poisson, RatePerSec: rate, Requests: serveRequests})
					cfg.KVPlacement = kv
					cfg.PrefillWorkers = 2
					cfg.Seed = seed
					return cfg
				},
			})
		}
	}
	return cells
}

const (
	layoutIters       = 2
	layoutWorkers     = 128
	layoutGlobalBatch = 256
)

// layoutBatch keeps the global batch fixed: each worker trains
// global / (effective data-parallel width) samples.
func layoutBatch(l parallel.Layout) int {
	dp := l.DP
	if dp == 0 {
		dp = 1
	}
	return layoutGlobalBatch / (dp * (layoutWorkers / l.Product()))
}

func layoutName(l parallel.Layout) string {
	if l.Trivial() {
		return "dp"
	}
	return l.String()
}

func layoutCells() []cell {
	dense := synthModel("synth8M", 256*1024)
	moe := func() *model.Model { return model.MoETransformer("moe8x4", 4, 256, 512, 8, 2, 32) }
	add := func(cells []cell, kind string, m func() *model.Model, l parallel.Layout, strategy string, flat bool) []cell {
		id := fmt.Sprintf("layouts/%s/%s/%s", kind, layoutName(l), strategy)
		if flat {
			id += "/flat"
		}
		c := trainCell(id, rackscaleMachine(layoutWorkers), m, layoutBatch(l), layoutIters, strategy, 4,
			func(cfg *train.Config) {
				cfg.Layout = l
				cfg.FlatCollectives = flat
			})
		// The MoE router draws token routes from the seed.
		c.seeded = kind == "moe" && l.EP > 1
		return append(cells, c)
	}
	var cells []cell
	for _, l := range []parallel.Layout{{}, {PP: 4}, {TP: 4}, {PP: 4, TP: 4}} {
		for _, s := range []string{"AllReduce", "COARSE"} {
			cells = add(cells, "dense", dense, l, s, false)
		}
	}
	for _, l := range []parallel.Layout{{}, {EP: 4}, {PP: 2, EP: 2}} {
		cells = add(cells, "moe", moe, l, "AllReduce", false)
	}
	// The planner pair: dense pp4 AllReduce above is the planned side.
	return add(cells, "dense", dense, parallel.Layout{PP: 4}, "AllReduce", true)
}
