package sim

import (
	"math"

	"dare/internal/snapshot"
)

// AddState folds the engine's checkpoint-relevant state into t: the
// clock, the sequence counter, the lifetime processed count, and the full
// future firing schedule (every live pending event's (when, seq) pair, in
// order). The queue implementation, the Defer free list, and the lazy
// canceled-event population are deliberately excluded: they are
// performance artifacts that never change which callbacks fire when, and
// a resumed run is free to rebuild them differently (see DESIGN.md §4j,
// "explicit vs derived state").
func (e *Engine) AddState(t *snapshot.StateTable) {
	t.Add("sim.now", math.Float64bits(e.now))
	t.Add("sim.seq", e.seq)
	t.Add("sim.processed", e.processed)
	h := snapshot.NewHash()
	n := 0
	e.PendingSchedule(func(when Time, seq uint64) {
		h.F64(when)
		h.U64(seq)
		n++
	})
	t.Add("sim.pending.live", uint64(n))
	t.AddHash("sim.pending.schedule", h)
}

// AddState folds every cohort's grid and membership shape: anchor, next
// index, live/tombstoned populations, and each slot's occupancy in sweep
// order. Member callbacks themselves are closures (derived state,
// re-registered on restore); what must match is who fires, when, in what
// order — which this captures.
func (ct *CohortTicker) AddState(h *snapshot.Hash) {
	h.F64(ct.period)
	h.Int(len(ct.cohorts))
	for _, co := range ct.cohorts {
		h.F64(co.phase)
		h.F64(co.anchor)
		h.U64(co.next)
		h.Bool(co.started)
		h.Bool(co.running)
		h.Int(co.active)
		h.Int(co.dead)
		for _, m := range co.members {
			h.Bool(m != nil)
		}
	}
}
