package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"coarse/internal/sim"
)

// waterFill is a slow reference max-min solver that shares no code
// with the production pass: textbook water-filling over individual
// flows (an aggregated group is passed in as its members). Every
// unfrozen flow's rate rises by the same increment until some link
// saturates; every unfrozen flow crossing a saturated link freezes,
// and that link joins the bottleneck set. Link loads are re-summed
// from the flow rates at every step.
//
// ambiguous reports a step at which two saturating links shared an
// unfrozen flow. Which of them "froze" the flow is then a tie-break
// choice, so bottleneck sets are only comparable one way.
func waterFill(caps []float64, paths [][]int) (rates []float64, bnecks map[int]bool, ambiguous bool) {
	rates = make([]float64, len(paths))
	frozen := make([]bool, len(paths))
	bnecks = map[int]bool{}
	load := make([]float64, len(caps))
	unfrozen := make([]int, len(caps))
	saturated := make([]bool, len(caps))
	for {
		clear(load)
		clear(unfrozen)
		for i, p := range paths {
			for _, l := range p {
				load[l] += rates[i]
				if !frozen[i] {
					unfrozen[l]++
				}
			}
		}
		inc := math.Inf(1)
		for l := range caps {
			if unfrozen[l] > 0 {
				inc = math.Min(inc, (caps[l]-load[l])/float64(unfrozen[l]))
			}
		}
		if math.IsInf(inc, 1) {
			return rates, bnecks, ambiguous
		}
		for i, p := range paths {
			if !frozen[i] {
				rates[i] += inc
				for _, l := range p {
					load[l] += inc
				}
			}
		}
		for l := range caps {
			saturated[l] = unfrozen[l] > 0 && caps[l]-load[l] <= 1e-12*caps[l]
		}
		for i, p := range paths {
			if frozen[i] {
				continue
			}
			hits := 0
			for _, l := range p {
				if saturated[l] {
					hits++
					bnecks[l] = true
				}
			}
			if hits > 1 {
				ambiguous = true
			}
			frozen[i] = hits > 0
		}
	}
}

// checkAgainstOracle flushes the pending pass and compares the live
// allocation with waterFill: rates within 1e-9 relative, and the same
// set of bottleneck channels (production: the channel that froze each
// live entry). It reports whether the instance was ambiguous.
func checkAgainstOracle(t *testing.T, seed int, net *Network) (ambiguous bool) {
	t.Helper()
	net.Flush()
	caps := make([]float64, len(net.channels))
	for i, c := range net.channels {
		caps[i] = c.capacity
	}
	var paths [][]int
	var got []float64
	prodSet := map[int]bool{}
	for _, f := range net.flows {
		if f.finished {
			continue
		}
		for m := 0; m < f.mult; m++ {
			p := make([]int, len(f.pathIDs))
			for h, id := range f.pathIDs {
				p[h] = int(id)
			}
			paths = append(paths, p)
			got = append(got, f.rate)
		}
		if f.bneck < 0 {
			t.Fatalf("seed %d t=%v: live entry %d has no freezing channel", seed, net.eng.Now(), f.id)
		}
		prodSet[int(f.bneck)] = true
	}
	want, refSet, ambiguous := waterFill(caps, paths)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*want[i] {
			t.Fatalf("seed %d t=%v: flow %d rate %.17g, reference %.17g", seed, net.eng.Now(), i, got[i], want[i])
		}
	}
	for ch := range prodSet {
		if !refSet[ch] {
			t.Fatalf("seed %d t=%v: production froze a flow at %s, not a reference bottleneck",
				seed, net.eng.Now(), net.channels[ch].name)
		}
	}
	if !ambiguous && len(prodSet) != len(refSet) {
		t.Fatalf("seed %d t=%v: bottleneck sets differ: production %v, reference %v",
			seed, net.eng.Now(), setKeys(prodSet), setKeys(refSet))
	}
	return ambiguous
}

func setKeys(s map[int]bool) []int {
	var ks []int
	for k := range s {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// TestMaxMinMatchesReferenceSolver compares the production allocation
// with waterFill. The random and indexed subtests run 300 random
// instances, the latter with every fill on the channel index: tagged
// symmetric fans (which the production path folds into multiplicity-k
// groups) and single flows over random multi-hop routes, checked after
// the first pass and again after every completion and every later
// admission burst, so fast-forwarded passes are checked as well as
// full ones. The tiered subtest runs passes long enough to be handed
// to the channel index.
func TestMaxMinMatchesReferenceSolver(t *testing.T) {
	t.Run("random", func(t *testing.T) { refRandom(t, fillAuto) })
	t.Run("indexed", func(t *testing.T) { refRandom(t, fillIndexed) })
	t.Run("tiered", refTiered)
}

func refRandom(t *testing.T, fill int8) {
	var checks, ambiguous int
	var aggregated, ffPasses uint64
	for seed := 1; seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		eng, net := newNet()
		net.fillMode = fill
		var chans []*Channel
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			c := math.Pow(10, 6+3*rng.Float64())
			l := net.NewLink("l"+string(rune('a'+i)), c, c*(0.5+rng.Float64()), 0)
			chans = append(chans, l.Fwd(), l.Rev())
		}
		var routes [][]*Channel
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			perm := rng.Perm(len(chans))
			r := make([]*Channel, 1+rng.Intn(min(3, len(perm))))
			for h := range r {
				r[h] = chans[perm[h]]
			}
			routes = append(routes, r)
		}
		check := func() {
			checks++
			if checkAgainstOracle(t, seed, net) {
				ambiguous++
			}
		}
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			route := routes[rng.Intn(len(routes))]
			size := float64(int64(1+rng.Intn(3)) << 20)
			k := 1 + rng.Intn(6)
			at := sim.Time(0)
			if i > 0 && rng.Intn(3) == 0 {
				at = sim.Time(rng.Intn(4)) * 1_000_000
			}
			eng.Schedule(at, func() {
				tag := new(AggTag)
				for j := 0; j < k; j++ {
					net.StartEphemeralTagged(tag, route, size, check)
				}
				eng.Schedule(0, check) // after this burst's admissions
			})
		}
		eng.Run()
		aggregated += net.FlowsAggregated()
		ffPasses += net.FastForwardPasses()
	}
	if aggregated == 0 || ffPasses == 0 {
		t.Fatalf("vacuous: %d flows aggregated, %d passes fast-forwarded", aggregated, ffPasses)
	}
	if ambiguous*10 > checks {
		t.Fatalf("%d of %d checks had tied bottlenecks; the set comparison barely ran", ambiguous, checks)
	}
	t.Logf("%d checks (%d with tied bottlenecks), %d flows aggregated, %d passes fast-forwarded",
		checks, ambiguous, aggregated, ffPasses)
}

// refTiered checks 24 instances on a 64-endpoint two-tier tree (eight
// leaves of eight, uplinks oversubscribed 2:1 or 4:1, every link's
// capacity jittered so bottleneck sets stay comparable). Even seeds run
// a full all-to-all, one flow per ordered pair; odd seeds run an
// EP-style pattern: strided groups of 4 or 8 endpoints exchange tagged
// fans of two to four members per pair beside an untagged ring over
// every endpoint. Each instance is checked after its first pass and
// after its next completions (3 for an all-to-all, whose 4,032 flows
// make the reference slow; 10 otherwise), and each must hand at least
// one fill to the channel index.
func refTiered(t *testing.T) {
	const endpoints, leaf = 64, 8
	var checks, ambiguous int
	for seed := 1; seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		eng, net := newNet()
		jitter := func(c float64) float64 { return c * (0.75 + 0.5*rng.Float64()) }
		oversub := float64(int(2) << rng.Intn(2))
		edge := make([]*Link, endpoints)
		for i := range edge {
			edge[i] = net.NewLink(fmt.Sprint("edge", i), jitter(16*gib), jitter(16*gib), 0)
		}
		up := make([]*Link, endpoints/leaf)
		for i := range up {
			c := leaf * 16 * gib / oversub
			up[i] = net.NewLink(fmt.Sprint("up", i), jitter(c), jitter(c), 0)
		}
		route := func(s, d int) []*Channel {
			if s/leaf == d/leaf {
				return []*Channel{edge[s].Fwd(), edge[d].Rev()}
			}
			return []*Channel{edge[s].Fwd(), up[s/leaf].Fwd(), up[d/leaf].Rev(), edge[d].Rev()}
		}
		n, checksPer := 0, 11
		if seed%2 == 0 {
			checksPer = 4
		}
		check := func() {
			if n++; n > checksPer {
				return
			}
			checks++
			if checkAgainstOracle(t, seed, net) {
				ambiguous++
			}
		}
		size := func() float64 { return float64(int64(1+rng.Intn(4)) << 20) }
		if seed%2 == 0 {
			for s := 0; s < endpoints; s++ {
				for d := 0; d < endpoints; d++ {
					if s != d {
						net.StartEphemeral(route(s, d), size(), check)
					}
				}
			}
		} else {
			g := 4 << rng.Intn(2)
			stride := endpoints / g
			for base := 0; base < stride; base++ {
				for i := 0; i < g; i++ {
					for j := 0; j < g; j++ {
						if i == j {
							continue
						}
						r, sz, tag := route(base+i*stride, base+j*stride), size(), new(AggTag)
						for k := 2 + rng.Intn(3); k > 0; k-- {
							net.StartEphemeralTagged(tag, r, sz, check)
						}
					}
				}
			}
			for s := 0; s < endpoints; s++ {
				net.StartEphemeral(route(s, (s+1)%endpoints), size(), check)
			}
		}
		eng.Schedule(0, check) // after the first pass's admissions
		for n < checksPer && eng.Step() {
		}
		if net.indexedPasses == 0 {
			t.Fatalf("seed %d: no fill was handed to the channel index", seed)
		}
	}
	if ambiguous*10 > checks {
		t.Fatalf("%d of %d checks had tied bottlenecks; the set comparison barely ran", ambiguous, checks)
	}
	t.Logf("%d checks (%d with tied bottlenecks)", checks, ambiguous)
}
