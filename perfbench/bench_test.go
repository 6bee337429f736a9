package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"coarse/internal/train"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testPins(t *testing.T) map[string]outputs {
	t.Helper()
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

// runSmallest runs one workload's smallest cell and returns the parsed
// last line of its report.
func runSmallest(t *testing.T, w workload, trace bool, pins map[string]outputs) result {
	t.Helper()
	res, err := runWorkload(options{
		workload: w, seed: defaultSeed, trace: trace, pins: pins,
		only: []cell{w.cells()[w.smallest]},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return last
}

func TestSmallestCellsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	pins := testPins(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := runSmallest(t, w, trace, pins)
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d cells failed", w.name, trace, got.Correct, got.Failed, got.Attempted)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, m.Name, v, m.Unit)
				}
			}
		}
	}
}

func TestWrongPinCountsAsFailed(t *testing.T) {
	w, _ := workloadByName("paper")
	c := w.cells()[w.smallest]
	pins := map[string]outputs{}
	for id, p := range testPins(t) {
		pins[id] = p
	}
	wrong := outputs{}
	for k, v := range pins[c.id] {
		wrong[k] = v
	}
	wrong["iter_time_ns"]++
	pins[c.id] = wrong
	got := runSmallest(t, w, false, pins)
	if got.Correct || got.Failed != got.Attempted {
		t.Fatalf("wrong pin: correct %v, %d of %d cells failed", got.Correct, got.Failed, got.Attempted)
	}
}

// Every cell of every workload has every pinned output recorded.
func TestPinsCoverEveryCell(t *testing.T) {
	pins := testPins(t)
	n := 0
	for _, w := range workloads {
		for _, c := range w.cells() {
			n++
			for _, k := range pinnedOutputs[c.kind()] {
				if _, ok := pins[c.id][k]; !ok {
					t.Errorf("%s: no pin for %s", c.id, k)
				}
			}
		}
	}
	if len(pins) != n {
		t.Errorf("pins.json has %d cells, the workloads %d", len(pins), n)
	}
}

// The counting wrapper around the strategy must not change what the
// simulator computes.
func TestWrapperLeavesOutputsUnchanged(t *testing.T) {
	w, _ := workloadByName("layouts")
	c := w.cells()[w.smallest]
	got := runCell(c, defaultSeed, nil, time.Now())
	if got.Err != "" {
		t.Fatal(got.Err)
	}
	cfg, strat := c.newTrain(defaultSeed)
	res, err := train.Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.IterTime) != got.Outputs["iter_time_ns"] || float64(res.Events) != got.Outputs["events"] {
		t.Fatalf("wrapped run: iter %v events %v; plain run: iter %v events %v",
			got.Outputs["iter_time_ns"], got.Outputs["events"], res.IterTime, res.Events)
	}
}

func TestRefusesCOARSEEnvironment(t *testing.T) {
	if err := checkEnv([]string{"HOME=/x", "COARSE_FLOW_AGG=1"}); err == nil {
		t.Fatal("COARSE_FLOW_AGG accepted")
	}
	if err := checkEnv([]string{"HOME=/x", "XCOARSE_Y=1"}); err != nil {
		t.Fatal(err)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"coarse/internal/fabric.(*Network).fill":     "fabric",
		"coarse/internal/train.(*Trainer).Run.func1": "train",
		"coarse/internal/fabricx.F":                  "other",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/maps.(*Map).Get":           "runtime",
		"main.runCell":                               "other",
		"container/heap.down":                        "",
	} {
		if got, _ := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// cpuByLayer reads a real runtime/pprof profile and places its samples
// in the simulator's layers.
func TestCPUByLayerParsesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	w, _ := workloadByName("paper")
	c := w.cells()[w.smallest]
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		runCell(c, defaultSeed, nil, start)
	}
	pprof.StopCPUProfile()
	cpu := map[string]float64{}
	if err := cpuByLayer(buf.Bytes(), cpu); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, ns := range cpu {
		total += ns
	}
	if cpu["sim"]+cpu["fabric"]+cpu["train"] == 0 || cpu["other"] > total/2 {
		t.Fatalf("CPU by layer %v: the simulator's layers hold too little of %v ns", cpu, total)
	}
}

// The speed kernel must not allocate, or the program's heap could slow
// it and leak into the scale factor.
func TestSpeedKernelAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { speedKernel() }); n != 0 {
		t.Fatalf("speedKernel allocates %v times per run", n)
	}
}

// CPU time sampled in the speed kernel counts for no layer.
func TestCPUByLayerDropsKernel(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	start := time.Now()
	for time.Since(start) < 300*time.Millisecond {
		speedKernel()
	}
	pprof.StopCPUProfile()
	cpu := map[string]float64{}
	if err := cpuByLayer(buf.Bytes(), cpu); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, ns := range cpu {
		total += ns
	}
	if total > 0.1*float64(time.Since(start)) {
		t.Fatalf("CPU by layer %v: kernel samples were attributed", cpu)
	}
}
