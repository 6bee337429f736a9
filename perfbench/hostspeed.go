package main

import "time"

// The benchmark runs on shared machines whose speed drifts, by as much
// as a factor of two over a few minutes, as neighbours load the cores.
// Raw host seconds measured a few minutes apart are then not
// comparable. So every host time the benchmark reports is scaled to a
// reference host speed: a fixed kernel runs before a pass's first cell
// and after each cell, and every timing in the pass is multiplied by
//
//	refKernelS / (the kernel's mean time over the pass)
//
// One kernel run is short and reads the host's speed of the moment,
// which swings by a fifth from one run to the next; the mean over a
// pass's runs follows the slower drift that separates runs of the
// benchmark. The kernel does not call the simulator, so a change to the
// program moves the scaled figures exactly as it moves the raw ones. It
// allocates nothing, so the program's heap cannot slow it. The raw
// figures are printed beside the scaled ones.

// refKernelS is the kernel's time on the reference host: a scaled
// second is a host second on a machine where speedKernel takes this
// long.
const refKernelS = 0.005

const (
	kernelHeap  = 4096    // keys in the kernel's binary heap
	kernelTable = 1 << 16 // words in its random-access table (512 KiB)
	kernelOps   = 300_000 // heap updates per run
)

var (
	kernelKeys = make([]float64, kernelHeap)
	kernelVals = make([]uint64, kernelTable)
	kernelSink uint64
)

// speedKernel runs a fixed mix of binary-heap sifts on a preallocated
// array and random updates to a table that fits in L2: branchy,
// cache-bound work like the simulator's event queue and fabric. It
// returns the seconds it took.
func speedKernel() float64 {
	start := time.Now()
	keys := kernelKeys
	r := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		r = r*6364136223846793005 + 1442695040888963407
		return r
	}
	for i := range keys {
		keys[i] = float64(next() >> 11)
	}
	down := func(i int) {
		for {
			m := 2*i + 1
			if m >= len(keys) {
				return
			}
			if m+1 < len(keys) && keys[m+1] < keys[m] {
				m++
			}
			if keys[i] <= keys[m] {
				return
			}
			keys[i], keys[m] = keys[m], keys[i]
			i = m
		}
	}
	for i := len(keys)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for k := 0; k < kernelOps; k++ {
		keys[0] += float64(next() >> 40)
		down(0)
		for j := 0; j < 4; j++ {
			v := next()
			kernelVals[(v>>20)&(kernelTable-1)] += v
		}
	}
	kernelSink += kernelVals[r&(kernelTable-1)]
	return time.Since(start).Seconds()
}

// scaleTimes multiplies a cell's host timings by the pass's scale to
// the reference speed, and records the scale and the raw wall time.
func (r *cellRun) scaleTimes(scale float64) {
	r.HostScale = scale
	r.RawWallS = r.WallS
	r.NewS *= scale
	r.SetupS *= scale
	r.RunS *= scale
	r.WallS *= scale
}
