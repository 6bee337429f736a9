package fabric

// Property-based regression for the max-min allocator: a few hundred
// seeded random networks and flow schedules, with three invariants
// checked after every allocation pass (admissions, completions and
// capacity changes each get a checkpoint that flushes the pending pass
// before reading rates):
//
//	(a) capacity: no channel's summed flow rates exceed its capacity
//	    (beyond float roundoff);
//	(b) progress + bottleneck witness: every admitted unfinished flow
//	    has a positive rate, and its rate is frozen by some saturated
//	    channel on its path — the defining shape of a max-min fair
//	    allocation (a flow whose path had slack everywhere could be
//	    raised, so the pass was not max-min);
//	(c) conservation: when the schedule drains, every channel's
//	    carried-byte counter equals the summed sizes of the flows
//	    routed through it, and the rate integral agrees with it up to
//	    nanosecond completion-rounding.
//
// The unit tests pin exact scenarios; this layer pins the algebra on
// shapes nobody hand-wrote, including multi-hop contention patterns and
// mid-flight capacity changes.

import (
	"math"
	"math/rand"
	"testing"

	"coarse/internal/sim"
)

// propCase is one random scenario: links, flows with start offsets,
// and optional capacity changes.
type propCase struct {
	eng   *sim.Engine
	net   *Network
	chans []*Channel
	flows []*propFlow
}

type propFlow struct {
	f    *Flow
	path []*Channel
	size float64
}

// buildPropCase generates the scenario for one seed, on the plain path
// if plain is set and with fill pinned to the given phase; onEvent
// fires after every admission, completion and capacity change. Everything —
// link count, capacities, latencies, paths, sizes, offsets, capacity
// changes — derives from the seeded rng, so a failure report's seed
// reproduces the exact case.
func buildPropCase(rng *rand.Rand, plain bool, fill int8, onEvent func(where string)) *propCase {
	eng, net := newNetPath(plain)
	net.fillMode = fill
	pc := &propCase{eng: eng, net: net}
	nLinks := 1 + rng.Intn(8)
	links := make([]*Link, nLinks)
	for i := range links {
		// Capacities log-uniform over 1 MB/s .. 1 GB/s, possibly
		// asymmetric; latency up to 10 us (never zero, so "admitted"
		// is cleanly observable as StartTime > 0).
		fwd := math.Pow(10, 6+3*rng.Float64())
		rev := fwd
		if rng.Intn(3) == 0 {
			rev = math.Pow(10, 6+3*rng.Float64())
		}
		links[i] = pc.net.NewLink("l"+string(rune('a'+i)), fwd, rev, sim.Time(1+rng.Intn(10000)))
		pc.chans = append(pc.chans, links[i].Fwd(), links[i].Rev())
	}
	nFlows := 1 + rng.Intn(30)
	for i := 0; i < nFlows; i++ {
		// Path: 1..4 distinct channels in random order. Distinctness
		// matters: a flow crossing the same channel twice would double
		// its own contribution to the channel rate.
		perm := rng.Perm(len(pc.chans))
		hops := 1 + rng.Intn(4)
		if hops > len(pc.chans) {
			hops = len(pc.chans)
		}
		path := make([]*Channel, hops)
		for h := 0; h < hops; h++ {
			path[h] = pc.chans[perm[h]]
		}
		pf := &propFlow{path: path, size: math.Pow(10, 3+5*rng.Float64())}
		pc.flows = append(pc.flows, pf)
		start := sim.Time(rng.Intn(5_000_000))
		eng.Schedule(start, func() {
			pf.f = pc.net.StartFlow(pf.path, pf.size, func() { onEvent("completion") })
		})
		// The admission itself happens one path latency after the
		// start; check just past that instant.
		eng.Schedule(start+PathLatency(path)+1, func() { onEvent("admission") })
	}
	// A third of the cases change link capacities mid-flight: the
	// invariants must hold across reallocation under new constraints.
	if rng.Intn(3) == 0 {
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			l := links[rng.Intn(len(links))]
			factor := 0.25 + 1.25*rng.Float64()
			at := sim.Time(rng.Intn(8_000_000))
			eng.Schedule(at, func() {
				pc.net.SetLinkCapacity(l, l.Fwd().Capacity()*factor, l.Rev().Capacity()*factor)
				onEvent("capacity-change")
			})
		}
	}
	return pc
}

// checkAllocation flushes the pending pass and asserts invariants (a)
// and (b) on the settled allocation.
func (pc *propCase) checkAllocation(t *testing.T, seed int, where string) {
	t.Helper()
	pc.net.Flush()
	// (a) capacity.
	for _, c := range pc.chans {
		if rate := c.CurrentRate(); rate > c.Capacity()*(1+1e-9)+1e-9 {
			t.Errorf("seed %d %s t=%v: channel %s rate %.6g exceeds capacity %.6g",
				seed, where, pc.eng.Now(), c.Name(), rate, c.Capacity())
		}
	}
	// (b) progress and bottleneck witness.
	for fi, pf := range pc.flows {
		f := pf.f
		if f == nil || f.Finished() || f.StartTime() == 0 {
			continue // not yet started, still in latency phase, or done
		}
		saturated := false
		for _, c := range pf.path {
			if c.CurrentRate() >= c.Capacity()*(1-1e-6) {
				saturated = true
				break
			}
		}
		if f.Rate() <= 0 {
			t.Errorf("seed %d %s t=%v: unfinished flow %d has rate %.6g",
				seed, where, pc.eng.Now(), fi, f.Rate())
		} else if !saturated {
			t.Errorf("seed %d %s t=%v: flow %d rate %.6g has slack on every path channel (not max-min)",
				seed, where, pc.eng.Now(), fi, f.Rate())
		}
	}
}

// checkConservation asserts invariant (c) after the schedule drained.
func (pc *propCase) checkConservation(t *testing.T, seed int) {
	t.Helper()
	end := pc.eng.Now()
	expected := make(map[*Channel]float64)
	count := make(map[*Channel]int)
	for fi, pf := range pc.flows {
		if pf.f == nil || !pf.f.Finished() {
			t.Fatalf("seed %d: flow %d never finished", seed, fi)
		}
		if pf.f.Remaining() != 0 {
			t.Errorf("seed %d: finished flow %d has %g bytes remaining", seed, fi, pf.f.Remaining())
		}
		if pf.f.FinishTime() < pf.f.StartTime() {
			t.Errorf("seed %d: flow %d finished at %v before starting at %v",
				seed, fi, pf.f.FinishTime(), pf.f.StartTime())
		}
		for _, c := range pf.path {
			expected[c] += pf.size
			count[c]++
		}
	}
	for _, c := range pc.chans {
		want := expected[c]
		if got := c.BytesCarried(); math.Abs(got-want) > 1e-6*want+1e-6 {
			t.Errorf("seed %d: channel %s carried %.6g bytes, flows routed %.6g",
				seed, c.Name(), got, want)
		}
		// The rate integral may differ from the carried bytes by up to
		// ~1 byte per completion (deadlines round up to whole
		// nanoseconds at <= 1 GB/s) plus float roundoff.
		tol := 1e-6*want + 16*float64(count[c]) + 1e-6
		if got := c.IntegratedBytes(end); math.Abs(got-want) > tol {
			t.Errorf("seed %d: channel %s integrated %.6g bytes, flows routed %.6g (tol %.3g)",
				seed, c.Name(), got, want, tol)
		}
	}
}

// TestMaxMinProperties drives ~200 seeded random scenarios and checks
// the allocator invariants at every admission, completion and capacity
// change, at eight random probe instants per scenario, and once after
// the schedule drains (followed by the conservation check). It runs on
// the production path, the plain path, and the production path with
// every fill on the channel index.
func TestMaxMinProperties(t *testing.T) {
	for _, mode := range []struct {
		name  string
		plain bool
		fill  int8
	}{{"production", false, fillAuto}, {"plain", true, fillAuto}, {"indexed", false, fillIndexed}} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := 0; seed < 200; seed++ {
				var pc *propCase
				pc = buildPropCase(rand.New(rand.NewSource(int64(seed)+1)), mode.plain, mode.fill, func(where string) {
					pc.checkAllocation(t, seed, where)
				})
				rng := rand.New(rand.NewSource(int64(seed) * 977))
				for i := 0; i < 8; i++ {
					at := sim.Time(rng.Intn(20_000_000))
					pc.eng.Schedule(at, func() { pc.checkAllocation(t, seed, "probe") })
				}
				pc.eng.Run()
				pc.checkAllocation(t, seed, "drained")
				pc.checkConservation(t, seed)
				if t.Failed() {
					t.Fatalf("seed %d: stopping at first failing scenario", seed)
				}
			}
		})
	}
}
