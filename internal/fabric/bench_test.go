package fabric

import (
	"testing"

	"coarse/internal/sim"
)

// The fabric microbenchmarks model the three hot-path shapes the
// training simulations exercise hardest, so BENCH_fabric.json tracks
// exactly the costs the quick suite pays:
//
//   - incast: many same-instant flows onto one bottleneck channel (an
//     all-reduce reduce step, a parameter-server pull storm);
//   - all-to-all: every endpoint pair crossing a shared switch, the
//     collective traffic pattern with the largest reshare fan-out, and
//     its two-tier variant, whose passes run many filling rounds (an
//     expert-parallel exchange across leaf switches);
//   - capacity flap: SetLinkCapacity storms under long-lived flows,
//     the dynamic re-profiling path.
//
// Each iteration builds a fresh engine+network and runs to completion,
// so ns/op covers admission, every reshare, and completion handling.

// BenchmarkFabricIncast256 admits 256 equal flows at t=0 onto a single
// bottleneck channel and runs to completion. Equal sizes mean all
// admissions land at one instant and all completions land at another —
// the pattern reshare coalescing targets.
func BenchmarkFabricIncast256(b *testing.B) {
	benchIncast(b, 256, false)
}

// BenchmarkFabricIncast256Staggered staggers the 256 sizes so every
// completion lands at its own instant, forcing a full reshare per
// completion: the O(F^2) worst case.
func BenchmarkFabricIncast256Staggered(b *testing.B) {
	benchIncast(b, 256, true)
}

func BenchmarkFabricIncast1024(b *testing.B) {
	benchIncast(b, 1024, false)
}

func benchIncast(b *testing.B, n int, staggered bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		l := net.NewLink("bottleneck", 16*gib, 16*gib, 0)
		completed := 0
		for j := 0; j < n; j++ {
			size := float64(4 * mib)
			if staggered {
				size += float64(j) * 64 * 1024
			}
			net.StartFlow([]*Channel{l.Fwd()}, size, func() { completed++ })
		}
		eng.Run()
		if completed != n {
			b.Fatalf("completed %d of %d flows", completed, n)
		}
	}
}

// BenchmarkFabricAllToAll16 runs a 16-endpoint all-to-all across a
// shared switch: every ordered pair sends one flow over its source
// uplink and destination downlink, so every reshare walks long shared
// paths.
func BenchmarkFabricAllToAll16(b *testing.B) {
	const n = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		links := make([]*Link, n)
		for j := range links {
			links[j] = net.NewLink("edge", 12*gib, 12*gib, 0)
		}
		completed := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				path := []*Channel{links[s].Fwd(), links[d].Rev()}
				net.StartFlow(path, float64((1+(s+d)%7)*mib), func() { completed++ })
			}
		}
		eng.Run()
		if completed != n*(n-1) {
			b.Fatalf("completed %d of %d flows", completed, n*(n-1))
		}
	}
}

// BenchmarkFabricAllToAllTiered runs a 24-endpoint all-to-all over a
// two-tier tree: three leaves of eight, each leaf's uplink
// oversubscribed 2:1, endpoint links of five different speeds. Pairs
// across leaves cross both uplinks, and sizes vary by pair, so most
// passes run dozens of filling rounds over up to 1,872 hops: the
// regime the channel index targets.
func BenchmarkFabricAllToAllTiered(b *testing.B) {
	const n, leaf = 24, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		edge := make([]*Link, n)
		for j := range edge {
			c := float64(8+j%5) * gib
			edge[j] = net.NewLink("edge", c, c, 0)
		}
		up := make([]*Link, n/leaf)
		for j := range up {
			up[j] = net.NewLink("uplink", leaf*12*gib/2, leaf*12*gib/2, 0)
		}
		completed := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				path := []*Channel{edge[s].Fwd(), edge[d].Rev()}
				if s/leaf != d/leaf {
					path = []*Channel{edge[s].Fwd(), up[s/leaf].Fwd(), up[d/leaf].Rev(), edge[d].Rev()}
				}
				net.StartFlow(path, float64((1+(7*s+d)%5)*mib), func() { completed++ })
			}
		}
		eng.Run()
		if completed != n*(n-1) {
			b.Fatalf("completed %d of %d flows", completed, n*(n-1))
		}
	}
}

// BenchmarkFabricCapacityFlap keeps 64 long flows alive across a
// two-hop topology while the shared trunk's capacity flaps 256 times:
// every flap settles all flows and reshares the whole network.
func BenchmarkFabricCapacityFlap(b *testing.B) {
	const flows = 64
	const flaps = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		net := NewNetwork(eng)
		trunk := net.NewLink("trunk", 32*gib, 32*gib, 0)
		edges := make([]*Link, flows)
		for j := range edges {
			edges[j] = net.NewLink("edge", 2*gib, 2*gib, 0)
		}
		completed := 0
		for j := 0; j < flows; j++ {
			path := []*Channel{edges[j].Fwd(), trunk.Fwd()}
			net.StartFlow(path, float64(1*gib), func() { completed++ })
		}
		for k := 0; k < flaps; k++ {
			hi := 24 + k%16
			eng.Schedule(sim.Time(1+k)*1_000_000, func() {
				net.SetLinkCapacity(trunk, float64(hi)*gib, float64(hi)*gib)
			})
		}
		eng.Run()
		if completed != flows {
			b.Fatalf("completed %d of %d flows", completed, flows)
		}
	}
}
