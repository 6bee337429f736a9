package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coarse/internal/sim"
)

// The production path (flow aggregation + steady-state fast-forward)
// must be byte-identical to the plain full filling pass. This file
// replays seeded random scenarios on both paths and compares every
// observable bit for bit. Scenario-level identity on real workloads
// is carried by the experiment goldens, which were recorded on the
// plain path.

// idItem is one transfer of an emission, or a same-instant observer.
type idItem struct {
	route int
	size  float64
	tag   bool // member of the emission's fan: shares its AggTag
	flush bool // not a transfer: Flush at the route's admission instant
}

// idEmit is a burst of transfers started back to back at one instant.
type idEmit struct {
	at    sim.Time
	items []idItem
}

// idCap is a mid-flight capacity change of one link.
type idCap struct {
	at       sim.Time
	link     int
	fwd, rev float64
}

// idScenario is pure data, so both paths replay exactly the same
// schedule.
type idScenario struct {
	links  [][3]float64 // fwd capacity, rev capacity, latency ns
	routes [][]int      // channel indices: 2*link (fwd), 2*link+1 (rev)
	emits  []idEmit
	caps   []idCap
	probes []sim.Time
}

// genIDScenario draws a random topology, symmetric fans (some with
// interleaved untagged flows, some broken by a size mismatch, some
// with a mid-admission observer that forces a pass between members),
// lone untagged flows, zero-size transfers, capacity changes, and
// denormal capacity windows that stall every flow crossing the link.
func genIDScenario(rng *rand.Rand) *idScenario {
	sc := &idScenario{}
	nLinks := 2 + rng.Intn(7)
	for i := 0; i < nLinks; i++ {
		fwd := math.Pow(10, 6+3*rng.Float64())
		rev := fwd
		if rng.Intn(3) == 0 {
			rev = math.Pow(10, 6+3*rng.Float64())
		}
		lat := float64(rng.Intn(4) * 500) // shared latencies: admissions coincide
		sc.links = append(sc.links, [3]float64{fwd, rev, lat})
	}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		perm := rng.Perm(2 * nLinks)
		sc.routes = append(sc.routes, perm[:1+rng.Intn(min(4, len(perm)))])
	}
	// Quantized sizes and start instants make completions and
	// admissions coincide, which is what the accelerations act on.
	size := func() float64 { return float64(int64(1+rng.Intn(4)) << (14 + rng.Intn(6))) }
	at := func() sim.Time { return sim.Time(rng.Intn(40)) * 25_000 }
	for i, n := 0, 3+rng.Intn(12); i < n; i++ {
		e := idEmit{at: at()}
		route := rng.Intn(len(sc.routes))
		sz := size()
		k := 1 + rng.Intn(8)
		for j := 0; j < k; j++ {
			it := idItem{route: route, size: sz, tag: true}
			if rng.Intn(12) == 0 {
				it.size = size() // breaks symmetry: admitted on its own
			}
			e.items = append(e.items, it)
			switch rng.Intn(10) {
			case 0:
				e.items = append(e.items, idItem{route: rng.Intn(len(sc.routes)), size: size()})
			case 1:
				e.items = append(e.items, idItem{route: route, flush: true})
			case 2:
				e.items = append(e.items, idItem{route: rng.Intn(len(sc.routes))}) // zero size
			}
		}
		sc.emits = append(sc.emits, e)
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		sc.emits = append(sc.emits, idEmit{at: at(), items: []idItem{{route: rng.Intn(len(sc.routes)), size: size()}}})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		l := rng.Intn(nLinks)
		f := 0.25 + 1.5*rng.Float64()
		sc.caps = append(sc.caps, idCap{at: at(), link: l, fwd: sc.links[l][0] * f, rev: sc.links[l][1] * f})
	}
	if rng.Intn(4) == 0 {
		l := rng.Intn(nLinks)
		t0 := at()
		sc.caps = append(sc.caps,
			idCap{at: t0, link: l, fwd: 5e-324, rev: 5e-324},
			idCap{at: t0 + sim.Time(1+rng.Intn(200_000)), link: l, fwd: sc.links[l][0], rev: sc.links[l][1]})
	}
	for i := 0; i < 6; i++ {
		sc.probes = append(sc.probes, sim.Time(rng.Intn(2_000_000)))
	}
	return sc
}

// idMode selects how a scenario is replayed: on the plain path or the
// production path, with fill pinned to one phase or left to the
// hand-off, and with or without a snapshot after every trigger.
type idMode struct {
	plain bool
	fill  int8 // fillAuto, fillRescan or fillIndexed
	snap  bool
}

// idObs is everything one replay exposes.
type idObs struct {
	done     []sim.Time // per transfer, completion instant
	order    []int      // transfer indices in completion-dispatch order
	carried  []float64  // per channel
	integ    []float64  // per channel, at drain
	rates    []float64  // every channel's rate at every probe
	reshares uint64
	requests uint64

	aggregated, ffPasses, indexed uint64

	// With idMode.snap: a hash of every live entry's rate and freezing
	// channel and of the last fill's rate and passBneck arrays, taken
	// after every admission burst, completion and capacity change.
	snaps        []uint64
	keyTies      int // entries a tie on an exactly equal share froze
	stalled      int // entries an indexed fill left at rate 0
	entrantFills int // entrant fast-forwards that filled on the index
}

func (sc *idScenario) play(mode idMode) *idObs {
	eng, net := newNetPath(mode.plain)
	net.fillMode = mode.fill
	obs := &idObs{}
	snap := func() {}
	if mode.snap {
		var lastFill, lastFull uint64
		snap = func() {
			net.Flush()
			obs.snaps = append(obs.snaps, passHash(net))
			full := net.passes - net.ffPasses
			if net.indexedPasses-lastFill > full-lastFull {
				obs.entrantFills++ // an indexed fill that was no full pass
			}
			lastFull = full
			if net.indexedPasses != lastFill {
				lastFill = net.indexedPasses
				obs.keyTies += keyTies(net)
				for _, r := range net.passRate {
					if r == 0 {
						obs.stalled++
					}
				}
			}
		}
	}
	var links []*Link
	var chans []*Channel
	for i, l := range sc.links {
		links = append(links, net.NewLink(fmt.Sprint("l", i), l[0], l[1], sim.Time(l[2])))
		chans = append(chans, links[i].Fwd(), links[i].Rev())
	}
	routes := make([][]*Channel, len(sc.routes))
	for i, r := range sc.routes {
		for _, c := range r {
			routes[i] = append(routes[i], chans[c])
		}
	}
	for _, e := range sc.emits {
		e := e
		eng.Schedule(e.at, func() {
			tag := new(AggTag)
			var admitAt []sim.Time // distinct admission delays, first-seen order
			for _, it := range e.items {
				path := routes[it.route]
				if it.flush {
					eng.Schedule(PathLatency(path), net.Flush)
					continue
				}
				idx := len(obs.done)
				obs.done = append(obs.done, -1)
				onDone := func() {
					obs.done[idx] = eng.Now()
					obs.order = append(obs.order, idx)
					snap()
				}
				if lat := PathLatency(path); !slices.Contains(admitAt, lat) {
					admitAt = append(admitAt, lat)
				}
				if it.tag {
					net.StartEphemeralTagged(tag, path, it.size, onDone)
				} else {
					net.StartEphemeral(path, it.size, onDone)
				}
			}
			if mode.snap {
				// One snapshot after each admission instant's burst, so
				// the burst still reaches its pass whole.
				for _, lat := range admitAt {
					eng.Schedule(lat, snap)
				}
			}
		})
	}
	for _, c := range sc.caps {
		c := c
		eng.Schedule(c.at, func() {
			net.SetLinkCapacity(links[c.link], c.fwd, c.rev)
			snap()
		})
	}
	for _, at := range sc.probes {
		eng.Schedule(at, func() {
			for _, c := range chans {
				obs.rates = append(obs.rates, c.CurrentRate())
			}
		})
	}
	eng.Run()
	for _, c := range chans {
		obs.carried = append(obs.carried, c.BytesCarried())
		obs.integ = append(obs.integ, c.IntegratedBytes(eng.Now()))
	}
	obs.reshares = net.Reshares()
	obs.requests = net.ReshareRequests()
	obs.aggregated = net.FlowsAggregated()
	obs.ffPasses = net.FastForwardPasses()
	obs.indexed = net.indexedPasses
	return obs
}

// sameBits reports whether two float slices are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffObs describes the first observable in which two replays differ,
// or returns "" when they are bitwise identical.
func diffObs(want, got *idObs) string {
	switch {
	case fmt.Sprint(want.done) != fmt.Sprint(got.done):
		return fmt.Sprintf("completion instants differ\nwant %v\ngot  %v", want.done, got.done)
	case fmt.Sprint(want.order) != fmt.Sprint(got.order):
		return fmt.Sprintf("completion order differs\nwant %v\ngot  %v", want.order, got.order)
	case !sameBits(want.carried, got.carried):
		return fmt.Sprintf("BytesCarried differs\nwant %v\ngot  %v", want.carried, got.carried)
	case !sameBits(want.integ, got.integ):
		return fmt.Sprintf("IntegratedBytes differs\nwant %v\ngot  %v", want.integ, got.integ)
	case !sameBits(want.rates, got.rates):
		return "probed channel rates differ"
	case want.reshares != got.reshares || want.requests != got.requests:
		return fmt.Sprintf("Reshares %d/%d requests %d/%d (want/got)",
			want.reshares, got.reshares, want.requests, got.requests)
	}
	for i := range want.snaps {
		if i >= len(got.snaps) || want.snaps[i] != got.snaps[i] {
			return fmt.Sprintf("rates or freezing channels differ at snapshot %d of %d", i, len(want.snaps))
		}
	}
	if len(got.snaps) != len(want.snaps) {
		return fmt.Sprintf("%d snapshots, want %d", len(got.snaps), len(want.snaps))
	}
	return ""
}

// TestAggregationByteIdentity replays 300 seeded random scenarios on
// the plain path and on the production path and requires bitwise-equal
// completion instants (and completion-dispatch order), per-channel
// BytesCarried and IntegratedBytes, channel rates at probe instants,
// and reshare counts. It fails if the property is vacuous: the
// production runs must aggregate at least one flow and fast-forward at
// least one pass, and the plain runs must do neither. The indexed
// subtest pins the production path's fill to the channel index and the
// plain path's to the rescan.
func TestAggregationByteIdentity(t *testing.T) {
	for _, mode := range []struct {
		name        string
		plain, prod int8
	}{{"auto", fillAuto, fillAuto}, {"indexed", fillRescan, fillIndexed}} {
		t.Run(mode.name, func(t *testing.T) {
			var aggregated, ffPasses uint64
			for seed := 1; seed <= 300; seed++ {
				sc := genIDScenario(rand.New(rand.NewSource(int64(seed))))
				want := sc.play(idMode{plain: true, fill: mode.plain})
				got := sc.play(idMode{fill: mode.prod})
				if want.aggregated != 0 || want.ffPasses != 0 {
					t.Fatalf("seed %d: plain path aggregated %d flows and fast-forwarded %d passes",
						seed, want.aggregated, want.ffPasses)
				}
				aggregated += got.aggregated
				ffPasses += got.ffPasses
				for i := range want.done {
					if want.done[i] < 0 {
						t.Fatalf("seed %d: transfer %d never completed", seed, i)
					}
				}
				if d := diffObs(want, got); d != "" {
					t.Fatalf("seed %d: plain and production paths differ: %s", seed, d)
				}
			}
			if aggregated == 0 {
				t.Errorf("no scenario aggregated a single flow; the identity property is vacuous")
			}
			if ffPasses == 0 {
				t.Errorf("no scenario fast-forwarded a single pass; the identity property is vacuous")
			}
			t.Logf("production path: %d flows aggregated, %d passes fast-forwarded", aggregated, ffPasses)
		})
	}
}
