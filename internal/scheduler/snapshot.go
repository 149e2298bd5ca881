package scheduler

import "dare/internal/snapshot"

// AddState folds the FIFO queue order (mapreduce.StateAdder).
func (s *FIFO) AddState(h *snapshot.Hash) {
	h.Int(len(s.jobs))
	for _, j := range s.jobs {
		h.Int(j.Spec.ID)
	}
}

// AddState folds the Fair scheduler's job order and per-job delay-
// scheduling skip counts (mapreduce.StateAdder). Scratch buffers are
// derived per-offer state and excluded.
func (s *Fair) AddState(h *snapshot.Hash) {
	h.Int(s.MaxSkips)
	h.Int(s.RackSkips)
	h.Int(len(s.jobs))
	for _, fj := range s.jobs {
		h.Int(fj.j.Spec.ID)
		h.Int(fj.skips)
	}
}
