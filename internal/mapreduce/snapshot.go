package mapreduce

import (
	"sort"

	"dare/internal/dfs"
	"dare/internal/policy"
	"dare/internal/snapshot"
)

// StateAdder is implemented by task selectors (and other pluggable
// components) that can fold their mutable state into a checkpoint
// fingerprint. Selectors that do not implement it contribute only a tag —
// a resumed run using such a selector still verifies through every other
// table row.
type StateAdder interface {
	AddState(h *snapshot.Hash)
}

// addJobState folds one job's complete scheduling state: the pending set
// (with enqueue seqs — requeue order is policy-visible), phase counters,
// locality tallies, attempt blame, and terminal flags. The inverted
// locality index (shards/heaps) is derived from pendingSeq plus the
// replica registry and is rebuilt by replay, so it is excluded.
func addJobState(h *snapshot.Hash, j *Job) {
	h.Int(j.Spec.ID)
	h.U64(j.nextSeq)
	blocks := make([]dfs.BlockID, 0, len(j.pendingSeq))
	for b := range j.pendingSeq {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, k int) bool { return blocks[i] < blocks[k] })
	h.Int(len(blocks))
	for _, b := range blocks {
		h.I64(int64(b))
		h.U64(j.pendingSeq[b])
	}
	h.Int(j.runningMaps)
	h.Int(j.completedMaps)
	h.Int(j.localMaps)
	h.Int(j.rackMaps)
	h.Int(j.remoteMaps)
	h.F64(j.mapTimeSum)
	h.I64(j.remoteBytes)
	h.I64(j.outputBytes)
	h.F64(j.firstTaskTime)
	h.Int(j.pendingReduces)
	h.Int(j.runningReduces)
	h.Int(j.finishedReduces)
	blocks = blocks[:0]
	for b := range j.attempts {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, k int) bool { return blocks[i] < blocks[k] })
	h.Int(len(blocks))
	for _, b := range blocks {
		h.I64(int64(b))
		h.Int(j.attempts[b])
	}
	h.Bool(j.finished)
	h.Bool(j.failed)
	h.F64(j.finishTime)
}

// addResult folds one finished job's result record.
func addResult(h *snapshot.Hash, r Result) {
	h.Int(r.ID)
	h.F64(r.Arrival)
	h.F64(r.Finish)
	h.Int(r.NumMaps)
	h.Int(r.NumRed)
	h.Int(r.Local)
	h.Int(r.Rack)
	h.Int(r.Remote)
	h.Int(r.FileRank)
	h.F64(r.MapTimeSum)
	h.I64(r.RemoteBytes)
	h.I64(r.OutputBytes)
	h.Int(r.OutputBlocks)
	h.F64(r.Turnaround)
	h.F64(r.FirstLaunch)
	h.F64(r.Dedicated)
	h.Bool(r.Failed)
}

// AddState folds the tracker's complete run state into t: per-node slot
// occupancy and health factors, every active job, collected results, the
// scheduler, in-flight attempts, repair/churn/gray/master machinery, and
// every RNG stream position the compute layer owns.
func (t *Tracker) AddState(tab *snapshot.StateTable) {
	nh := snapshot.NewHash()
	for _, n := range t.c.Nodes {
		nh.Int(n.FreeMapSlots)
		nh.Int(n.FreeReduceSlots)
		nh.Int(n.ActiveRemoteReads)
		nh.F64(n.SlowFactor)
		nh.F64(n.DiskFactor)
		nh.Bool(n.Up)
		nh.Bool(n.Blacklisted)
	}
	tab.Add("mr.nodes", nh.Sum())

	jh := snapshot.NewHash()
	jh.Int(len(t.active))
	for _, j := range t.active {
		addJobState(jh, j)
	}
	tab.Add("mr.jobs", jh.Sum())

	rh := snapshot.NewHash()
	rh.Int(t.completed)
	rh.Int(t.totalJobs)
	for _, r := range t.results {
		addResult(rh, r)
	}
	tab.Add("mr.results", rh.Sum())

	sh := snapshot.NewHash()
	if sa, ok := t.sel.(StateAdder); ok {
		sh.Str(t.sel.Name())
		sa.AddState(sh)
	} else {
		sh.Str("opaque:" + t.sel.Name())
	}
	tab.Add("mr.scheduler", sh.Sum())

	// In-flight attempts have no stable identity, so each record folds to
	// its own digest and the digests sum commutatively — order-insensitive
	// but still sensitive to any record changing.
	ih := snapshot.NewHash()
	var inflightSum uint64
	inflightCount := 0
	for node, recs := range t.inflight {
		for rec := range recs {
			one := snapshot.NewHash()
			one.Int(int(node.ID))
			one.Int(rec.job.Spec.ID)
			one.I64(int64(rec.block))
			one.Bool(rec.isMap)
			one.Int(int(rec.loc))
			one.F64(rec.dur)
			inflightSum += one.Sum()
			inflightCount++
		}
	}
	ih.Int(inflightCount)
	ih.U64(inflightSum)
	tab.Add("mr.inflight", ih.Sum())

	fh := snapshot.NewHash()
	fh.Int(t.repairsDone)
	fh.F64(t.lastRepairAt)
	fh.Bool(t.repairDisabled)
	blocks := make([]dfs.BlockID, 0, len(t.repairInFlight))
	for b := range t.repairInFlight {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, k int) bool { return blocks[i] < blocks[k] })
	for _, b := range blocks {
		fh.I64(int64(b))
	}
	fh.Int(len(t.failureEvents))
	fh.Int(len(t.recoveryEvents))
	for _, rule := range t.faults.blacklistRules {
		if rule != nil {
			policy.AddRuleState(fh, rule)
		}
	}
	if t.faults.failRule != nil {
		policy.AddRuleState(fh, t.faults.failRule)
	}
	for _, c := range t.faults.nodeTaskFailures {
		fh.Int(c)
	}
	if t.faults.taskFailG != nil {
		fh.U64(t.faults.taskFailG.Draws())
	}
	if t.faults.blacklistRNG != nil {
		fh.U64(t.faults.blacklistRNG.Draws())
	}
	tab.Add("mr.faults", fh.Sum())

	sp := snapshot.NewHash()
	sp.Int(t.spec.launched)
	sp.Int(len(t.spec.groups))
	for _, g := range t.spec.groups {
		sp.Int(g.job.Spec.ID)
		sp.I64(int64(g.block))
		sp.F64(g.started)
		sp.Bool(g.done)
		sp.Int(len(g.recs))
	}
	if t.spec.qualify != nil {
		policy.AddRuleState(sp, t.spec.qualify)
	}
	tab.Add("mr.speculator", sp.Sum())

	gh := snapshot.NewHash()
	gs := t.gray.stats
	gh.Int(gs.Degrades)
	gh.Int(gs.Restores)
	gh.Int(gs.Flaps)
	gh.Int(gs.ReplicasRestored)
	gh.Int(gs.CorruptionsInjected)
	gh.Int(gs.CorruptionsDetected)
	gh.Int(gs.ReadRetries)
	gh.Int(gs.HedgedReads)
	gh.Int(gs.HedgeWins)
	if t.gray.rng != nil {
		gh.U64(t.gray.rng.Draws())
	}
	tab.Add("mr.gray", gh.Sum())

	mh := snapshot.NewHash()
	mh.Bool(t.master.enabled)
	mh.Bool(t.master.down)
	mh.F64(t.master.downSince)
	mh.F64(t.master.recoverAt)
	mh.Int(len(t.master.pending))
	for _, pe := range t.master.pending {
		mh.Int(int(pe.node))
		mh.Bool(pe.recover)
	}
	mh.Int(len(t.master.unobserved))
	mh.I64(t.master.outageHeartbeats)
	mh.I64(t.master.outageReads)
	mh.Int(t.master.stats.Outages)
	mh.F64(t.master.stats.Downtime)
	mh.I64(t.master.stats.DeferredHeartbeats)
	mh.I64(t.master.stats.DeferredReads)
	mh.Int(t.master.stats.KilledMaps)
	mh.Int(t.master.stats.KilledReduces)
	mh.Int(t.master.stats.BlockReports)
	mh.F64(t.master.stats.WarmupTime)
	mh.Int(len(t.master.events))
	if tj := t.master.journal; tj != nil {
		ids := make([]int32, 0, len(tj.jobs))
		for id := range tj.jobs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
		for _, id := range ids {
			jj := tj.jobs[id]
			mh.Int(int(id))
			mh.Int(jj.numMaps)
			mh.Int(jj.completed)
			mh.Bool(jj.finished)
			mh.Bool(jj.failed)
		}
		for _, b := range tj.blame {
			mh.Int(b)
		}
		mh.Int(tj.finished)
	}
	tab.Add("mr.master", mh.Sum())

	hh := snapshot.NewHash()
	if t.hb != nil {
		t.hb.ct.AddState(hh)
	}
	tab.Add("mr.heartbeats", hh.Sum())

	tab.Add("mr.rng.rtt", t.c.rttG.Draws())
	tab.Add("mr.rng.noise", t.c.noiseG.Draws())
}
