package fabric

import (
	"testing"

	"coarse/internal/sim"
)

// runFan admits k size-sized flows over path at t=0, tagged as one fan,
// plus one background flow over bgPath, and returns every completion
// time (fan members first, background last) together with the
// bottleneck channel's integrated byte count at drain. With plain set
// the fan is admitted as k independent flows.
func runFan(t *testing.T, plain bool, k int, size float64, mkPaths func(n *Network) (fan, bg []*Channel)) (fanDone []sim.Time, bgDone sim.Time, bneckBytes float64) {
	t.Helper()
	eng, net := newNetPath(plain)
	fan, bg := mkPaths(net)
	fanDone = make([]sim.Time, k)
	var tag AggTag
	eng.Schedule(0, func() {
		for i := 0; i < k; i++ {
			i := i
			net.StartEphemeralTagged(&tag, fan, size, func() { fanDone[i] = eng.Now() })
		}
		if bg != nil {
			net.StartEphemeralTagged(nil, bg, size, func() { bgDone = eng.Now() })
		}
	})
	eng.Run()
	net.Flush()
	bneckBytes = fan[0].IntegratedBytes(eng.Now())
	return fanDone, bgDone, bneckBytes
}

// TestAggregatedGroupMatchesIndependentFlows pins the core byte-identity
// claim: a multiplicity-k group must carry exactly the bytes, rates, and
// completion instants of k independently admitted flows — to the last
// bit — both when the fan is alone on its bottleneck and when it shares
// the bottleneck with an untagged bystander.
func TestAggregatedGroupMatchesIndependentFlows(t *testing.T) {
	cases := []struct {
		name string
		mk   func(n *Network) (fan, bg []*Channel)
	}{
		{"fan-only", func(n *Network) ([]*Channel, []*Channel) {
			l := n.NewLink("pcie", 10*gib, 10*gib, 0)
			return []*Channel{l.Fwd()}, nil
		}},
		{"shared-bottleneck", func(n *Network) ([]*Channel, []*Channel) {
			a := n.NewLink("a", 10*gib, 10*gib, 0)
			b := n.NewLink("b", 40*gib, 40*gib, 0)
			return []*Channel{a.Fwd(), b.Fwd()}, []*Channel{a.Fwd()}
		}},
	}
	const k = 7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			offDone, offBG, offBytes := runFan(t, true, k, 3*gib, tc.mk)
			onDone, onBG, onBytes := runFan(t, false, k, 3*gib, tc.mk)
			for i := range offDone {
				if offDone[i] != onDone[i] {
					t.Errorf("member %d: finish %v aggregated vs %v independent", i, onDone[i], offDone[i])
				}
			}
			if offBG != onBG {
				t.Errorf("bystander finish %v aggregated vs %v independent", onBG, offBG)
			}
			if offBytes != onBytes {
				t.Errorf("bottleneck integrated bytes %v aggregated vs %v independent", onBytes, offBytes)
			}
		})
	}
}
