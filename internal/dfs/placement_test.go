package dfs

import (
	"fmt"
	"slices"
	"testing"

	"dare/internal/event"
	"dare/internal/stats"
	"dare/internal/topology"
)

// linearPlace is the reference HDFS default placement: the same pick
// sequence as placePrimaries, but every fallback — the third-replica one
// included — walks all n nodes in wrapped order from start, with a
// per-block used map. It returns the chosen nodes in placement order.
func linearPlace(topo topology.Topology, failed map[topology.NodeID]bool, rng *stats.RNG, replication int) []topology.NodeID {
	n := topo.N()
	want := replication
	if want > n {
		want = n
	}
	chosen := make([]topology.NodeID, 0, want)
	used := make(map[topology.NodeID]bool, want)
	pick := func(ok func(topology.NodeID) bool) (topology.NodeID, bool) {
		usable := func(cand topology.NodeID) bool {
			return !used[cand] && !failed[cand] && (ok == nil || ok(cand))
		}
		for t := 0; t < 8; t++ {
			if cand := topology.NodeID(rng.Intn(n)); usable(cand) {
				return cand, true
			}
		}
		start := rng.Intn(n)
		for i := 0; i < n; i++ {
			if cand := topology.NodeID((start + i) % n); usable(cand) {
				return cand, true
			}
		}
		return 0, false
	}
	add := func(node topology.NodeID) {
		chosen = append(chosen, node)
		used[node] = true
	}

	first, ok := pick(nil)
	if !ok {
		return chosen
	}
	add(first)
	if want >= 2 {
		r0 := topo.Rack(first)
		second, ok := pick(func(c topology.NodeID) bool { return topo.Rack(c) != r0 })
		if !ok {
			second, ok = pick(nil)
		}
		if ok {
			add(second)
		}
	}
	if want >= 3 && len(chosen) >= 2 {
		r1 := topo.Rack(chosen[1])
		third, ok := pick(func(c topology.NodeID) bool { return topo.Rack(c) == r1 })
		if !ok {
			third, ok = pick(nil)
		}
		if ok {
			add(third)
		}
	}
	for len(chosen) < want {
		extra, ok := pick(nil)
		if !ok {
			break
		}
		add(extra)
	}
	return chosen
}

// placementLog records the nodes of every ReplicaAdd, in publish order.
type placementLog struct{ nodes []topology.NodeID }

func (l *placementLog) HandleEvent(ev event.Event) {
	if ev.Kind == event.ReplicaAdd {
		l.nodes = append(l.nodes, topology.NodeID(ev.Node))
	}
}

// TestPlacementMatchesLinearWalk is the differential test for the
// rack-indexed third-replica pick: on every case the name node must place
// each block on exactly the nodes, in exactly the order, the full linear
// walk picks, and leave its placement stream at the same position.
func TestPlacementMatchesLinearWalk(t *testing.T) {
	constRTT := stats.Constant{V: 0}
	virtual := func(nodes, racks, pods int) topology.Topology {
		return topology.NewVirtual(topology.VirtualParams{Nodes: nodes, Racks: racks, Pods: pods, RTT: constRTT}, stats.NewRNG(77))
	}
	type tcase struct {
		name string
		topo topology.Topology
		// fail picks the nodes downed before any file exists.
		fail func(topology.Topology) []topology.NodeID
	}
	// rackOf returns every node sharing a rack with node.
	rackOf := func(topo topology.Topology, node topology.NodeID) []topology.NodeID {
		var out []topology.NodeID
		for i := 0; i < topo.N(); i++ {
			if topo.Rack(topology.NodeID(i)) == topo.Rack(node) {
				out = append(out, topology.NodeID(i))
			}
		}
		return out
	}
	cases := []tcase{
		{name: "dedicated-rack1", topo: topology.NewDedicated(30, 1, constRTT)},
		{name: "dedicated-rack40", topo: topology.NewDedicated(400, 40, constRTT)},
		{name: "dedicated-rack40-ragged", topo: topology.NewDedicated(130, 40, constRTT)},
		{name: "dedicated-one-rack", topo: topology.NewDedicated(50, 0, constRTT)},
		{name: "virtual-ec2", topo: virtual(99, 300, 3)},
		{name: "virtual-racks-many", topo: virtual(60, 100000, 2)},
		{name: "virtual-racks-few", topo: virtual(200, 7, 2)},
		{
			name: "dedicated-scattered-failures",
			topo: topology.NewDedicated(400, 40, constRTT),
			fail: func(topo topology.Topology) []topology.NodeID {
				var out []topology.NodeID
				for i := 0; i < topo.N(); i += 3 {
					out = append(out, topology.NodeID(i))
				}
				return out
			},
		},
		{
			// Racks 1-7 fully down, only racks 0, 8 and 9 up: probes
			// mostly miss, so the wrapped walks run from starts inside
			// the dead span.
			name: "dedicated-whole-racks-down",
			topo: topology.NewDedicated(200, 20, constRTT),
			fail: func(topo topology.Topology) []topology.NodeID {
				var out []topology.NodeID
				for i := 20; i < 160; i++ {
					out = append(out, topology.NodeID(i))
				}
				return out
			},
		},
		{
			// Rack r1 = rack 3 has one up node: once it holds the second
			// replica the third-replica rack walk finds nothing usable.
			name: "dedicated-rack-r1-exhausted",
			topo: topology.NewDedicated(80, 20, constRTT),
			fail: func(topo topology.Topology) []topology.NodeID {
				var out []topology.NodeID
				for _, node := range rackOf(topo, 60) {
					if node != 75 {
						out = append(out, node)
					}
				}
				return append(out, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
			},
		},
		{
			name: "virtual-ec2-rack-down",
			topo: virtual(99, 30, 3),
			fail: func(topo topology.Topology) []topology.NodeID {
				return rackOf(topo, 7)
			},
		},
		{name: "tiny-two-nodes", topo: topology.NewDedicated(2, 1, constRTT)},
	}
	for _, tc := range cases {
		for repl := 1; repl <= 5; repl++ {
			t.Run(fmt.Sprintf("%s/r%d", tc.name, repl), func(t *testing.T) {
				checkPlacementMatches(t, tc.topo, tc.fail, repl)
			})
		}
	}
	// Replication above the node count degrades to every usable node.
	t.Run("replication-above-n", func(t *testing.T) {
		checkPlacementMatches(t, topology.NewDedicated(4, 2, constRTT), nil, 6)
		checkPlacementMatches(t, topology.NewDedicated(3, 0, constRTT), func(topology.Topology) []topology.NodeID {
			return []topology.NodeID{1}
		}, 5)
	})
}

func checkPlacementMatches(t *testing.T, topo topology.Topology, fail func(topology.Topology) []topology.NodeID, repl int) {
	t.Helper()
	const seed = 0xB10C
	nn := NewNameNode(topo, repl, stats.NewRNG(seed))
	log := &placementLog{}
	bus := event.NewBus(nil)
	bus.Subscribe(log)
	nn.SetBus(bus)
	failed := map[topology.NodeID]bool{}
	if fail != nil {
		for _, node := range fail(topo) {
			nn.FailNode(node)
			failed[node] = true
		}
	}
	ref := stats.NewRNG(seed)
	for f := 0; f < 200; f++ {
		file, err := nn.CreateFile(fmt.Sprintf("f%d", f), 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := file.Blocks[0]
		want := linearPlace(topo, failed, ref, repl)
		if !slices.Equal(log.nodes, want) {
			t.Fatalf("block %d placed on %v, linear walk picks %v", b, log.nodes, want)
		}
		log.nodes = log.nodes[:0]
		sorted := slices.Clone(want)
		slices.Sort(sorted)
		if locs := nn.Locations(b); !slices.Equal(locs, sorted) {
			t.Fatalf("block %d Locations %v, want %v", b, locs, sorted)
		}
		if got, want := nn.rng.Draws(), ref.Draws(); got != want {
			t.Fatalf("block %d: placement stream at draw %d, linear walk at %d", b, got, want)
		}
	}
}
