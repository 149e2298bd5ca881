package mapreduce

import (
	"dare/internal/sim"
	"dare/internal/topology"
)

// heartbeatCohortSize picks how many same-rack nodes share one coalesced
// heartbeat event on an n-node cluster. Cohorts never cross racks — a
// rack failure must stop a whole cohort's worth of members without
// touching another rack's schedule — and the size scales with the
// cluster: paper-scale clusters (< 256 nodes) get singleton cohorts,
// which makes the cohort phase assignment interval·i/n — bit-identical
// to the historical per-node de-synchronization, so small-cluster
// experiments are untouched. Past that the stride grows toward 8, where
// one engine event sweeps eight heartbeats and the dominant event class
// shrinks 8x.
func heartbeatCohortSize(n int) int {
	s := n / 128
	if s < 1 {
		s = 1
	}
	if s > 8 {
		s = 8
	}
	return s
}

// heartbeatDriver owns every node's heartbeat stream. It schedules one
// engine event per (rack, stride) cohort per interval and sweeps the
// member callbacks in node order. Each node fires at its cohort's phase,
// at exactly the instants and in exactly the order one independent ticker
// per node would (the sim package tests prove that equivalence against a
// per-node reference): same instants, and at each shared instant the same
// node order (engine FIFO tie-break equals activation order equals cohort
// sweep order).
type heartbeatDriver struct {
	handles []*sim.CohortMember // index-aligned with Cluster.Nodes
	ct      *sim.CohortTicker
}

// newHeartbeatDriver starts heartbeats for every node of c at the given
// interval, calling beat(node) once per node per interval. Cohorts are
// per-rack chunks of heartbeatCohortSize(n) nodes in ID order; cohort i
// of C starts with phase interval·i/C, so cohorts are de-synchronized
// exactly as individual nodes were, just at cohort granularity.
func newHeartbeatDriver(c *Cluster, interval float64, beat func(*Node)) *heartbeatDriver {
	n := len(c.Nodes)
	cohortSize := heartbeatCohortSize(n)
	// Enumerate cohorts in order of first member (node ID) appearance:
	// deterministic for any topology, and equal to (rack, stride) order on
	// contiguous dedicated racks.
	cohortOf := make([]int, n)
	type cohortKey struct{ rack, stride int }
	index := make(map[cohortKey]int)
	for i := 0; i < n; i++ {
		k := cohortKey{c.Topo.Rack(topology.NodeID(i)), c.rackOrdinal[i] / cohortSize}
		id, ok := index[k]
		if !ok {
			id = len(index)
			index[k] = id
		}
		cohortOf[i] = id
	}
	numCohorts := len(index)
	d := &heartbeatDriver{
		handles: make([]*sim.CohortMember, n),
		ct:      sim.NewCohortTicker(c.Eng, interval),
	}
	cohorts := make([]*sim.Cohort, numCohorts)
	for i := range cohorts {
		cohorts[i] = d.ct.NewCohort(interval * float64(i) / float64(numCohorts))
	}
	// Members join in node ID order, so each cohort sweeps its nodes in
	// the order their per-node first events would have been enqueued.
	for i, node := range c.Nodes {
		node := node
		d.handles[i] = cohorts[cohortOf[i]].Add(func() { beat(node) })
	}
	return d
}

// Stop halts node id's heartbeat stream (node failure).
func (d *heartbeatDriver) Stop(id topology.NodeID) {
	if d != nil && int(id) < len(d.handles) {
		d.handles[id].Stop()
	}
}

// Resume restarts node id's heartbeat stream on its original phase grid
// (node recovery or flap rejoin): the next beat is the node's next
// scheduled instant, not a full interval away.
func (d *heartbeatDriver) Resume(id topology.NodeID) {
	if d != nil && int(id) < len(d.handles) {
		d.handles[id].Resume()
	}
}

// StopAll halts every stream (end of the tracking horizon).
func (d *heartbeatDriver) StopAll() {
	if d == nil {
		return
	}
	for _, h := range d.handles {
		h.Stop()
	}
}
