package main

import (
	"fmt"
	"time"

	"coarse/internal/serve"
	"coarse/internal/train"
)

// outputs are a cell's simulated results by name. Times are virtual
// nanoseconds. Every value is a function of the cell's inputs only, so
// two runs of one cell must agree exactly.
type outputs map[string]float64

// pinnedOutputs names the user-visible results checked against pins.
// Event counts, total time and link utilization are left out: COARSE's
// offline profiling reaches them as a side effect.
var pinnedOutputs = map[string][]string{
	"train": {"iter_time_ns", "blocked_comm_ns", "compute_time_ns"},
	"serve": {"completed", "ttft_p50_ns", "ttft_p99_ns", "tpot_p50_ns", "tpot_p99_ns", "goodput_rps", "kv_fabric_bytes"},
}

func (c cell) kind() string {
	if c.newServe != nil {
		return "serve"
	}
	return "train"
}

// cellRun is one execution of a cell: host timings at each layer
// boundary, counters read through the layers' accessors afterwards, and
// the simulated outputs.
type cellRun struct {
	ID string `json:"id"`
	// Module is the strategy's package, or "serve".
	Module string `json:"module"`
	// NewS is train.New or serve.New; SetupS is Strategy.Setup, which
	// runs inside Trainer.Run; RunS is Trainer.Run minus SetupS, or
	// Sim.Run. WallS covers the whole cell, input construction and
	// output checks included. All four are scaled to the reference host
	// speed by HostScale (hostspeed.go); RawWallS is WallS unscaled.
	NewS      float64 `json:"new_s"`
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	WallS     float64 `json:"wall_s"`
	HostScale float64 `json:"host_scale"`
	RawWallS  float64 `json:"raw_wall_s"`

	Counts  map[string]float64 `json:"counts"`
	Outputs outputs            `json:"outputs,omitempty"`
	// Err is why the cell failed: a simulator error, a panic, or a
	// mismatch against its pins or invariants. Empty on success.
	Err string `json:"err,omitempty"`

	spans []span
}

// span is one timed call into a layer, kept in memory by traced runs.
type span struct {
	Name   string  `json:"name"`
	Cell   string  `json:"cell"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// countingStrategy wraps a strategy so the benchmark can time Setup,
// which Trainer.Run calls, and count GradientReady calls. It delegates
// every method unchanged.
type countingStrategy struct {
	train.Strategy
	setup      time.Duration
	setupStart time.Time
	gradCalls  uint64
}

func (s *countingStrategy) Setup(ctx *train.Ctx) error {
	s.setupStart = time.Now()
	err := s.Strategy.Setup(ctx)
	s.setup = time.Since(s.setupStart)
	return err
}

func (s *countingStrategy) GradientReady(it, w, layer int) {
	s.gradCalls++
	s.Strategy.GradientReady(it, w, layer)
}

// runCell executes one cell and checks its outputs: against want when
// non-nil, and against the cell's invariants always. A panic inside the
// simulator is recovered and reported as the cell's error.
func runCell(c cell, seed int64, want outputs, epoch time.Time) (r cellRun) {
	r = cellRun{ID: c.id, Module: c.module, Counts: map[string]float64{}}
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprintf("panic: %v", p)
		}
		r.WallS = time.Since(start).Seconds()
	}()
	mark := func(name, parent string, from, to time.Time) {
		r.spans = append(r.spans, span{Name: name, Cell: c.id, Parent: parent,
			Start: from.Sub(epoch).Seconds(), End: to.Sub(epoch).Seconds()})
	}
	var err error
	if c.newServe != nil {
		err = runServe(c, seed, &r, mark)
	} else {
		err = runTrain(c, seed, &r, mark)
	}
	mark("cell", "", start, time.Now())
	if err != nil {
		r.Err = err.Error()
		return r
	}
	if err := c.check(r.Outputs, want); err != nil {
		r.Err = err.Error()
	}
	return r
}

type markFunc func(name, parent string, from, to time.Time)

func runTrain(c cell, seed int64, r *cellRun, mark markFunc) error {
	cfg, strat := c.newTrain(seed)
	cs := &countingStrategy{Strategy: strat}
	t0 := time.Now()
	tr, err := train.New(cfg, cs)
	t1 := time.Now()
	mark("train.New", "cell", t0, t1)
	r.NewS = t1.Sub(t0).Seconds()
	if err != nil {
		return err
	}
	res, err := tr.Run()
	t2 := time.Now()
	mark("Trainer.Run", "cell", t1, t2)
	if !cs.setupStart.IsZero() {
		mark("Strategy.Setup", "Trainer.Run", cs.setupStart, cs.setupStart.Add(cs.setup))
	}
	r.SetupS = cs.setup.Seconds()
	r.RunS = t2.Sub(t1).Seconds() - r.SetupS
	if err != nil {
		return err
	}
	eng := tr.Ctx().Eng
	net := tr.Ctx().Machine.Net
	stats := tr.CommStats()
	for name, v := range map[string]uint64{
		"sim.events":                     eng.Dispatched(),
		"sim.events_tombstoned":          eng.EventsTombstoned(),
		"sim.queue_compactions":          eng.Compactions(),
		"fabric.reshare_requests":        net.ReshareRequests(),
		"fabric.reshares":                net.Reshares(),
		"fabric.completions_rescheduled": net.CompletionsRescheduled(),
		"fabric.completions_skipped":     net.CompletionsSkipped(),
		"fabric.flows_aggregated":        net.FlowsAggregated(),
		"fabric.fastforward_passes":      net.FastForwardPasses(),
		"fabric.fastforward_admissions":  net.FastForwardAdmissions(),
		"train.gradient_ready_calls":     cs.gradCalls,
	} {
		r.Counts[name] = float64(v)
	}
	r.Counts["parallel.ep_bytes"] = float64(stats.EPTokens)
	r.Counts["parallel.pp_bytes"] = float64(stats.PPActs)
	r.Counts["parallel.tp_bytes"] = float64(stats.TPReduce)
	r.Outputs = outputs{
		"iter_time_ns":    float64(res.IterTime),
		"blocked_comm_ns": float64(res.BlockedComm),
		"compute_time_ns": float64(res.ComputeTime),
		"total_time_ns":   float64(res.TotalTime),
		"events":          float64(res.Events),
		"iterations":      float64(res.Iterations),
		"chaos_faults":    float64(res.ChaosFaults),
	}
	return nil
}

func runServe(c cell, seed int64, r *cellRun, mark markFunc) error {
	cfg := c.newServe(seed)
	t0 := time.Now()
	s, err := serve.New(cfg)
	t1 := time.Now()
	mark("serve.New", "cell", t0, t1)
	r.NewS = t1.Sub(t0).Seconds()
	if err != nil {
		return err
	}
	res, err := s.Run()
	t2 := time.Now()
	mark("Sim.Run", "cell", t1, t2)
	r.RunS = t2.Sub(t1).Seconds()
	if err != nil {
		return err
	}
	r.Counts["sim.events"] = float64(res.Events)
	r.Counts["serve.requests"] = float64(res.Requests)
	r.Counts["serve.kv_fabric_bytes"] = float64(res.KVFabricBytes)
	r.Outputs = outputs{
		"requests":        float64(res.Requests),
		"completed":       float64(res.Completed),
		"ttft_p50_ns":     float64(res.TTFT.P50),
		"ttft_p99_ns":     float64(res.TTFT.P99),
		"tpot_p50_ns":     float64(res.TPOT.P50),
		"tpot_p99_ns":     float64(res.TPOT.P99),
		"goodput_rps":     res.GoodputRPS,
		"kv_fabric_bytes": float64(res.KVFabricBytes),
		"total_time_ns":   float64(res.TotalTime),
		"events":          float64(res.Events),
		"chaos_faults":    float64(res.ChaosFaults),
	}
	return nil
}

// check applies the cell's invariants, which hold at every seed, and
// then compares the pinned outputs with want when want is non-nil.
func (c cell) check(got, want outputs) error {
	if c.kind() == "serve" {
		if got["completed"] != got["requests"] || got["requests"] != serveRequests {
			return fmt.Errorf("completed %v of %v requests", got["completed"], got["requests"])
		}
	} else {
		if got["iterations"] != float64(c.iters) || got["iter_time_ns"] <= 0 {
			return fmt.Errorf("finished %v of %d iterations, iteration time %v ns",
				got["iterations"], c.iters, got["iter_time_ns"])
		}
	}
	if c.chaos && got["chaos_faults"] < 1 {
		return fmt.Errorf("chaos cell opened no fault window")
	}
	if want == nil {
		return nil
	}
	for _, k := range pinnedOutputs[c.kind()] {
		w, ok := want[k]
		if !ok {
			return fmt.Errorf("no pin for %s", k)
		}
		if got[k] != w {
			return fmt.Errorf("%s = %v, pinned %v", k, got[k], w)
		}
	}
	return nil
}

// sameOutputs reports the first output on which two runs of a cell
// differ, or "" when they agree exactly.
func sameOutputs(a, b outputs) string {
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return k
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return k
		}
	}
	return ""
}
