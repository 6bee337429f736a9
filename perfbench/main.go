// Command perfbench is the simulator's end-to-end benchmark. It runs one
// workload's fixed cell set serially through the layers' public entry
// points (train.New, Trainer.Run, serve.New, Sim.Run), repeats the set
// for the requested time, checks every cell's simulated outputs, and
// prints host-side costs as one JSON object on its last line of output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (wall_s, setup_s,
// sim_s, peak_rss_mb) as medians over repetitions. Host times are
// scaled to a reference host speed, measured between cells by a fixed
// kernel (hostspeed.go). With --trace 1 it
// alternates untraced and traced repetitions, records spans around
// each layer call and a CPU profile attributed by package in the traced
// ones, and reports the per-layer metrics. BENCHMARK.json lists both
// sets; BASELINE.md says which end-to-end metric each layer metric
// should move, on which workload.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// options are one invocation's settings.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// pins are the recorded outputs, by cell ID, at defaultSeed.
	pins map[string]outputs
	// only, when non-nil, replaces the workload's cell set.
	only []cell
}

// minReps is the fewest repetitions of the cell set an untraced run
// makes, whatever --seconds says, so that every reported figure is a
// median.
const minReps = 4

// maxRunSeconds bounds one invocation: no repetition starts if the
// previous one's duration would carry the run past it.
const maxRunSeconds = 150

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper, rackscale, serve or layouts")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measure for at least this many seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	spansDir := fs.String("spans-dir", "", "directory to write the traced run's spans into (none when empty)")
	writePins := fs.String("write-pins", "", "run every workload once at the default seed and write its outputs to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkEnv(os.Environ()); err != nil {
		return err
	}
	// Cells run serially; extra Ps only give the GC more threads than
	// the machine has CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if *writePins != "" {
		return recordPins(*writePins)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	res, err := runWorkload(options{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spansDir: *spansDir, pins: pins,
	})
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// checkEnv refuses COARSE_* variables: they switch engine paths, so a
// figure measured under one would not describe the defaults.
func checkEnv(env []string) error {
	for _, kv := range env {
		if strings.HasPrefix(kv, "COARSE_") {
			return fmt.Errorf("refusing to run with %s set: the benchmark measures the program's defaults", strings.SplitN(kv, "=", 2)[0])
		}
	}
	return nil
}

//go:embed pins.json
var pinsJSON []byte

// pinFile is pins.json: every cell's pinned outputs at pinFile.Seed.
type pinFile struct {
	Seed  int64              `json:"seed"`
	Cells map[string]outputs `json:"cells"`
}

func loadPins() (map[string]outputs, error) {
	var f pinFile
	if err := json.Unmarshal(pinsJSON, &f); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if f.Seed != defaultSeed {
		return nil, fmt.Errorf("pins.json recorded at seed %d, want %d", f.Seed, defaultSeed)
	}
	return f.Cells, nil
}

// recordPins runs every cell once at defaultSeed and writes the pinned
// subset of its outputs. Only a change that means to move simulated
// results should rewrite the file.
func recordPins(path string) error {
	f := pinFile{Seed: defaultSeed, Cells: map[string]outputs{}}
	for _, w := range workloads {
		for _, c := range w.cells() {
			r := runCell(c, defaultSeed, nil, time.Now())
			if r.Err != "" {
				return fmt.Errorf("%s: %s", c.id, r.Err)
			}
			pin := outputs{}
			for _, k := range pinnedOutputs[c.kind()] {
				pin[k] = r.Outputs[k]
			}
			f.Cells[c.id] = pin
			fmt.Fprintf(os.Stderr, "pinned %s\n", c.id)
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// pass is one run of the cell set.
type pass struct {
	cells []cellRun
}

// wall is the pass's host time over all its cells, at the reference
// host speed.
func (p pass) wall() float64 {
	var s float64
	for _, c := range p.cells {
		s += c.WallS
	}
	return s
}

// rawWall is wall without scaling to the reference host speed.
func (p pass) rawWall() float64 {
	var s float64
	for _, c := range p.cells {
		s += c.RawWallS
	}
	return s
}

// setupS is the pass's host time before simulation: train.New plus
// Strategy.Setup, and serve.New.
func (p pass) setupS() float64 {
	var s float64
	for _, c := range p.cells {
		s += c.NewS + c.SetupS
	}
	return s
}

// simS is the pass's host time simulating: Trainer.Run minus Setup,
// plus Sim.Run.
func (p pass) simS() float64 {
	var s float64
	for _, c := range p.cells {
		s += c.RunS
	}
	return s
}

// passSeed is the seed of pass k of a run at seed: the run's own seed
// first, then seeds derived from it. Later passes thus time the seeded
// cells on fresh inputs, and a run's medians describe the workload
// rather than one draw of its seeded inputs.
func passSeed(seed int64, k int) int64 {
	return seed + int64(k)*1_000_003
}

// runPass runs the cell set once. It times the speed kernel before the
// first cell and after each one, and scales the pass's host times to
// the reference speed by the kernel's mean time.
func runPass(cells []cell, o options, seed int64, epoch time.Time) pass {
	p := pass{}
	kernel := speedKernel()
	for _, c := range cells {
		var want outputs
		if !c.seeded || seed == defaultSeed {
			want = o.pins[c.id]
			if want == nil {
				want = outputs{} // a missing pin fails the check
			}
		}
		p.cells = append(p.cells, runCell(c, seed, want, epoch))
		kernel += speedKernel()
	}
	scale := refKernelS / (kernel / float64(len(cells)+1))
	for i := range p.cells {
		p.cells[i].scaleTimes(scale)
	}
	return p
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	env   map[string]any
	cells []cellRun // the per-cell breakdown
}

func runWorkload(o options) (*result, error) {
	cells := o.only
	if cells == nil {
		cells = o.workload.cells()
	}
	epoch := time.Now()
	res := &result{Metrics: map[string]metric{}}
	var passes []pass
	if !o.trace {
		for len(passes) < minReps || time.Since(epoch).Seconds() < o.seconds {
			if len(passes) >= minReps && time.Since(epoch).Seconds()+passes[len(passes)-1].rawWall() > maxRunSeconds {
				break
			}
			runtime.GC() // start every pass from a collected heap
			passes = append(passes, runPass(cells, o, passSeed(o.seed, len(passes)), epoch))
		}
		res.Metrics["wall_s"] = metric{median(passes, pass.wall), "s"}
		res.Metrics["setup_s"] = metric{median(passes, pass.setupS), "s"}
		res.Metrics["sim_s"] = metric{median(passes, pass.simS), "s"}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		res.cells = medianCells(passes)
	} else {
		// Untraced and traced passes alternate, all at the run's seed, so
		// that drift in the host's speed reaches both sides alike.
		var untraced, traced []pass
		cpu := map[string]float64{}
		var rt runtimeStats
		for len(traced) == 0 || time.Since(epoch).Seconds() < o.seconds {
			if len(traced) > 0 && time.Since(epoch).Seconds()+untraced[0].rawWall()+traced[0].rawWall() > maxRunSeconds {
				break
			}
			runtime.GC()
			untraced = append(untraced, runPass(cells, o, o.seed, epoch))
			p, err := tracedPass(cells, o, epoch, cpu, &rt)
			if err != nil {
				return nil, err
			}
			traced = append(traced, p)
		}
		// Spans and profiling only observe, so every traced pass must
		// reproduce the simulated outputs of the first untraced one.
		for _, p := range traced {
			for i := range p.cells {
				tc, uc := &p.cells[i], untraced[0].cells[i]
				if tc.Err == "" && uc.Err == "" {
					if k := sameOutputs(tc.Outputs, uc.Outputs); k != "" {
						tc.Err = fmt.Sprintf("traced output %s = %v, untraced %v", k, tc.Outputs[k], uc.Outputs[k])
					}
				}
			}
		}
		passes = append(untraced, traced...)
		res.cells = medianCells(traced)
		for i := range rt {
			rt[i] /= float64(len(traced))
		}
		overhead := median(traced, pass.wall)/median(untraced, pass.wall) - 1
		for k, v := range layerMetrics(res.cells, cpu, rt, overhead) {
			res.Metrics[k] = v
		}
		if o.spansDir != "" {
			if err := writeSpans(o.spansDir, o.workload.name, traced); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range passes {
		for _, c := range p.cells {
			res.Attempted++
			if c.Err != "" {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0
	res.env = map[string]any{
		"workload":     o.workload.name,
		"seed":         o.seed,
		"passes":       len(passes),
		"cells":        len(cells),
		"cells_failed": res.Failed,
		"raw_wall_s":   median(passes, pass.rawWall),
		"ref_kernel_s": refKernelS,
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
	}
	return res, nil
}

// runtimeStats are the Go runtime counters named by runtimeSamples,
// summed over traced passes.
type runtimeStats [4]float64

var runtimeSamples = [4]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	var s [4]metrics.Sample
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s[:])
	var r runtimeStats
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			r[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			r[i] = s[i].Value.Float64()
		}
	}
	return r
}

// tracedPass runs the cell set under the CPU profiler, adding the CPU
// time it samples to cpu by layer and the runtime counters it moves to
// rt.
func tracedPass(cells []cell, o options, epoch time.Time, cpu map[string]float64, rt *runtimeStats) (pass, error) {
	var prof bytes.Buffer
	runtime.GC()
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return pass{}, fmt.Errorf("cpu profile: %w", err)
	}
	p := runPass(cells, o, o.seed, epoch)
	pprof.StopCPUProfile()
	after := readRuntime()
	for i := range rt {
		rt[i] += after[i] - before[i]
	}
	return p, cpuByLayer(prof.Bytes(), cpu)
}

// layerMetrics derives the per-layer figures from the per-cell
// breakdown of the traced passes, the CPU time they sampled by layer,
// the runtime counters per pass and the tracing overhead.
func layerMetrics(cells []cellRun, cpu map[string]float64, rt runtimeStats, overhead float64) map[string]metric {
	m := map[string]metric{}
	sum := func(f func(cellRun) float64) float64 {
		var s float64
		for _, c := range cells {
			s += f(c)
		}
		return s
	}
	count := func(name string) float64 { return sum(func(c cellRun) float64 { return c.Counts[name] }) }
	for _, mod := range []string{"core", "paramserver", "train"} {
		mod := mod
		m[mod+".setup_s"] = metric{sum(func(c cellRun) float64 { return onlyIf(c.Module == mod, c.SetupS) }), "s"}
		m[mod+".run_s"] = metric{sum(func(c cellRun) float64 { return onlyIf(c.Module == mod, c.RunS) }), "s"}
	}
	m["train.new_s"] = metric{sum(func(c cellRun) float64 { return onlyIf(c.Module != "serve", c.NewS) }), "s"}
	m["serve.new_s"] = metric{sum(func(c cellRun) float64 { return onlyIf(c.Module == "serve", c.NewS) }), "s"}
	m["serve.run_s"] = metric{sum(func(c cellRun) float64 { return onlyIf(c.Module == "serve", c.RunS) }), "s"}

	events := count("sim.events")
	m["sim.events"] = metric{events, "count"}
	// Host time in Trainer.Run (Setup included: profiler probes
	// dispatch events too) and Sim.Run, per event dispatched.
	m["sim.ns_per_event"] = metric{ratio(sum(func(c cellRun) float64 { return c.SetupS + c.RunS })*1e9, events), "ns"}
	for _, k := range []string{"sim.events_tombstoned", "sim.queue_compactions",
		"fabric.reshare_requests", "fabric.reshares", "fabric.completions_rescheduled",
		"fabric.completions_skipped", "fabric.flows_aggregated", "fabric.fastforward_passes",
		"fabric.fastforward_admissions", "train.gradient_ready_calls", "serve.requests"} {
		m[k] = metric{count(k), "count"}
	}
	reqs := count("fabric.reshare_requests")
	m["fabric.coalesced_ratio"] = metric{ratio(reqs-count("fabric.reshares"), reqs), "ratio"}
	for _, k := range []string{"parallel.ep_bytes", "parallel.pp_bytes", "parallel.tp_bytes", "serve.kv_fabric_bytes"} {
		m[k] = metric{count(k), "bytes"}
	}
	m["runtime.alloc_mb"] = metric{rt[0] / (1 << 20), "MB"}
	m["runtime.gc_cycles"] = metric{rt[1], "count"}
	m["runtime.gc_cpu_frac"] = metric{ratio(rt[2], rt[3]), "ratio"}
	var cpuTotal float64
	for _, ns := range cpu {
		cpuTotal += ns
	}
	for _, mod := range append(append([]string{}, cpuModules...), "other") {
		m["cpu."+mod] = metric{ratio(cpu[mod], cpuTotal), "ratio"}
	}
	m["trace.overhead"] = metric{overhead, "ratio"}
	return m
}

func onlyIf(ok bool, v float64) float64 {
	if ok {
		return v
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(ps []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return medianOf(xs)
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianCells is the per-cell breakdown of several passes: each cell's
// median timings, its counts and outputs from the first pass, and the
// first error any pass saw.
func medianCells(ps []pass) []cellRun {
	out := make([]cellRun, len(ps[0].cells))
	for i := range out {
		out[i] = ps[0].cells[i]
		out[i].spans = nil
		col := func(f func(cellRun) float64) float64 {
			xs := make([]float64, len(ps))
			for j, p := range ps {
				xs[j] = f(p.cells[i])
			}
			return medianOf(xs)
		}
		out[i].NewS = col(func(c cellRun) float64 { return c.NewS })
		out[i].SetupS = col(func(c cellRun) float64 { return c.SetupS })
		out[i].RunS = col(func(c cellRun) float64 { return c.RunS })
		out[i].WallS = col(func(c cellRun) float64 { return c.WallS })
		out[i].HostScale = col(func(c cellRun) float64 { return c.HostScale })
		out[i].RawWallS = col(func(c cellRun) float64 { return c.RawWallS })
		for _, p := range ps {
			if p.cells[i].Err != "" && out[i].Err == "" {
				out[i].Err = p.cells[i].Err
			}
		}
	}
	return out
}

// peakRSSMB is the process's peak resident set size, VmHWM in
// /proc/self/status. (getrusage's maxrss would also count the parent's
// peak, which survives exec.)
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// writeSpans writes the traced passes' spans as one JSON array.
func writeSpans(dir, workload string, ps []pass) error {
	var spans []span
	for _, p := range ps {
		for _, c := range p.cells {
			spans = append(spans, c.spans...)
		}
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), b, 0o644)
}

// print writes the environment, the per-cell breakdown and, last, the
// result object.
func (r *result) print(w io.Writer) error {
	line := func(prefix string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if prefix != "" {
			_, err = fmt.Fprintf(w, "%s %s\n", prefix, b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		return err
	}
	err := line("env", r.env)
	for _, c := range r.cells {
		err = errors.Join(err, line("cell", c))
	}
	return errors.Join(err, line("", r))
}
