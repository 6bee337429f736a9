package fabric

import (
	"math"
	"math/rand"
	"testing"

	"coarse/internal/sim"
)

// The channel index (fillIndexed) must reproduce the worklist rescan
// (fillRescan) bit for bit: the same rate and the same freezing channel
// for every entry of every fill. This file replays seeded scenarios on
// two-tier trees, long and short passes, with fill pinned to each
// phase and left to the hand-off, and compares them after every
// trigger.

// treeRoutes builds and memoizes the routes of one pod of a two-tier
// tree: endpoint edge links under leaf switches, one uplink per leaf.
type treeRoutes struct {
	sc       *idScenario
	rng      *rand.Rand
	edge, up []int // link indices
	leaf     int   // endpoints per leaf
	memo     map[[3]int]int
}

// route returns the route index from endpoint s to endpoint d. Within
// a leaf it is the source edge up and the destination edge down; across
// leaves it adds both leaves' uplinks. One route in sixteen crosses its
// first channel a second time at the end.
func (tr *treeRoutes) route(s, d int) int {
	twice := 0
	if tr.rng.Intn(16) == 0 {
		twice = 1
	}
	k := [3]int{s, d, twice}
	if r, ok := tr.memo[k]; ok {
		return r
	}
	r := []int{2 * tr.edge[s]}
	if ls, ld := s/tr.leaf, d/tr.leaf; ls != ld {
		r = append(r, 2*tr.up[ls], 2*tr.up[ld]+1)
	}
	r = append(r, 2*tr.edge[d]+1)
	if twice == 1 {
		r = append(r, r[0])
	}
	tr.sc.routes = append(tr.sc.routes, r)
	tr.memo[k] = len(tr.sc.routes) - 1
	return tr.memo[k]
}

// genTreeScenario draws two disjoint pods, each a two-tier tree whose
// links are equal within a tier, so exactly equal shares are common.
// Each pod gets collective bursts at quantized instants: all-to-all,
// ring and incast over a strided group of endpoints, every pair a
// tagged fan of one to three members. Bursts into an idle pod while the
// other is busy are admitted through the entrant fast-forward. Some
// scenarios add lone flows, zero-size transfers, mid-burst observers,
// capacity changes and a denormal capacity window that stalls flows.
func genTreeScenario(rng *rand.Rand) *idScenario {
	sc := &idScenario{}
	var pods []*treeRoutes
	for p := 0; p < 2; p++ {
		tr := &treeRoutes{sc: sc, rng: rng, leaf: []int{2, 4, 8}[rng.Intn(3)], memo: map[[3]int]int{}}
		leaves := 2 + rng.Intn(4)
		edgeCap := float64(int64(8+8*rng.Intn(2)) << 30)
		upCap := edgeCap * float64(tr.leaf) / float64(int(1)<<rng.Intn(3))
		lat := float64(rng.Intn(2) * 500)
		for i := 0; i < leaves*tr.leaf; i++ {
			tr.edge = append(tr.edge, len(sc.links))
			sc.links = append(sc.links, [3]float64{edgeCap, edgeCap, lat})
		}
		for i := 0; i < leaves; i++ {
			tr.up = append(tr.up, len(sc.links))
			sc.links = append(sc.links, [3]float64{upCap, upCap, lat})
		}
		pods = append(pods, tr)
	}
	at := func() sim.Time { return sim.Time(rng.Intn(20)) * 50_000 }
	for _, tr := range pods {
		n := len(tr.edge)
		for b, bursts := 0, 1+rng.Intn(4); b < bursts; b++ {
			g := min(n, []int{4, 8, 16}[rng.Intn(3)])
			stride := max(1, n/g)
			base := rng.Intn(n)
			member := func(j int) int { return (base + j*stride) % n }
			e := idEmit{at: at()}
			size := float64(int64(1+rng.Intn(3)) << 20)
			pair := func(s, d int) {
				if s == d {
					return
				}
				r := tr.route(s, d)
				sz := size
				if rng.Intn(4) == 0 {
					sz = float64(int64(1+rng.Intn(3)) << 20)
				}
				for k := 1 + rng.Intn(3); k > 0; k-- {
					e.items = append(e.items, idItem{route: r, size: sz, tag: true})
				}
				switch rng.Intn(40) {
				case 0:
					e.items = append(e.items, idItem{route: r, flush: true})
				case 1:
					e.items = append(e.items, idItem{route: r}) // zero size
				}
			}
			switch rng.Intn(3) {
			case 0: // all-to-all
				for i := 0; i < g; i++ {
					for j := 0; j < g; j++ {
						pair(member(i), member(j))
					}
				}
			case 1: // ring
				for i := 0; i < g; i++ {
					pair(member(i), member(i+1))
				}
			default: // incast
				for i := 1; i < g; i++ {
					pair(member(i), member(0))
				}
			}
			sc.emits = append(sc.emits, e)
		}
		for i, k := 0, rng.Intn(6); i < k; i++ {
			r := tr.route(rng.Intn(n), rng.Intn(n))
			sc.emits = append(sc.emits, idEmit{at: at(), items: []idItem{{route: r, size: float64(int64(1+rng.Intn(7)) << 18)}}})
		}
	}
	if rng.Intn(3) == 0 {
		l := rng.Intn(len(sc.links))
		f := 0.5 + rng.Float64()
		sc.caps = append(sc.caps, idCap{at: at(), link: l, fwd: sc.links[l][0] * f, rev: sc.links[l][1] * f})
	}
	if rng.Intn(3) == 0 {
		l := rng.Intn(len(sc.links))
		t0 := at()
		sc.caps = append(sc.caps,
			idCap{at: t0, link: l, fwd: 5e-324, rev: 5e-324},
			idCap{at: t0 + sim.Time(1+rng.Intn(200_000)), link: l, fwd: sc.links[l][0], rev: sc.links[l][1]})
	}
	for i := 0; i < 4; i++ {
		sc.probes = append(sc.probes, sim.Time(rng.Intn(1_000_000)))
	}
	return sc
}

// passHash hashes (FNV-1a) every live entry's rate and freezing
// channel, then the last fill's rate and passBneck arrays.
func passHash(n *Network) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for _, f := range n.flows {
		if !f.finished {
			mix(math.Float64bits(f.rate))
			mix(uint64(f.bneck))
		}
	}
	for i, r := range n.passRate {
		mix(math.Float64bits(r))
		mix(uint64(n.passBneck[i]))
	}
	return h
}

// keyTies counts the entries of the last fill that crossed a second
// channel which froze other entries at bitwise the same rate. That
// channel could not have been picked first (it would have frozen this
// entry too), and it offered the same share when this entry froze, so
// the two tied exactly and the key decided between them.
func keyTies(n *Network) int {
	frozeAt := map[[2]uint64]bool{} // (channel, rate bits) of every freeze
	for i, b := range n.passBneck {
		if b >= 0 {
			frozeAt[[2]uint64{uint64(b), math.Float64bits(n.passRate[i])}] = true
		}
	}
	ties := 0
	for i, b := range n.passBneck {
		if b < 0 {
			continue
		}
		r := math.Float64bits(n.passRate[i])
		for _, id := range n.passPath[n.passOff[i]:n.passOff[i+1]] {
			if id != b && frozeAt[[2]uint64{uint64(id), r}] {
				ties++
				break
			}
		}
	}
	return ties
}

// TestFillPhasesAgree replays seeded two-tier-tree scenarios on the
// plain and the production path, each with fill pinned to the rescan,
// pinned to the channel index, and left to the hand-off, and requires
// every replay to match the rescan's bit for bit: a snapshot of rates
// and freezing channels after every admission, completion and capacity
// change, plus everything TestAggregationByteIdentity compares. It is
// vacuous unless the hand-off sent some passes each way, some fill broke
// an exact tie by key, an indexed fill stalled a flow, and the entrant
// fast-forward filled a burst on the index.
func TestFillPhasesAgree(t *testing.T) {
	var ties, stalled, entrant int
	var forced, auto uint64
	for seed := 1; seed <= 30; seed++ {
		sc := genTreeScenario(rand.New(rand.NewSource(int64(seed))))
		for _, plain := range []bool{true, false} {
			want := sc.play(idMode{plain: plain, fill: fillRescan, snap: true})
			if want.indexed != 0 {
				t.Fatalf("seed %d: the rescan-pinned replay ran %d indexed fills", seed, want.indexed)
			}
			for _, fill := range []int8{fillIndexed, fillAuto} {
				got := sc.play(idMode{plain: plain, fill: fill, snap: true})
				if d := diffObs(want, got); d != "" {
					t.Fatalf("seed %d plain=%v fill=%d: %s", seed, plain, fill, d)
				}
				if fill == fillIndexed {
					forced += got.indexed
					ties += got.keyTies
					stalled += got.stalled
					entrant += got.entrantFills
				} else {
					auto += got.indexed
				}
			}
		}
	}
	t.Logf("indexed fills: %d pinned, %d handed off; %d key-decided ties, %d stalled entries, %d entrant bursts",
		forced, auto, ties, stalled, entrant)
	switch {
	case auto == 0:
		t.Errorf("no pass was handed from the rescan to the index")
	case auto == forced:
		t.Errorf("every pass was handed to the index; no pass finished on the rescan")
	case ties == 0:
		t.Errorf("no exact tie was decided by key")
	case stalled == 0:
		t.Errorf("no indexed fill stalled an entry")
	case entrant == 0:
		t.Errorf("no entrant burst was filled on the index through the fast-forward")
	}
}
