package scheduler

import (
	"cmp"
	"slices"

	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/topology"
)

// DefaultMaxSkips is the default delay-scheduling patience, measured in
// skipped scheduling opportunities, matching the Hadoop fair scheduler's
// locality-delay implementation (Zaharia et al., EuroSys'10, Algorithm 1):
// a job with no node-local work on the offering node is passed over; after
// being skipped this many times it is allowed to launch non-locally.
const DefaultMaxSkips = 8

// Fair implements fair sharing with delay scheduling. Each free slot is
// offered to the jobs with pending maps, ordered by how far below their
// fair share they run (fewest running maps first, arrival order as
// tie-break). A job launches immediately when it has a node-local block on
// the offering node; otherwise its skip count grows, and once it exceeds
// MaxSkips the job accepts a non-local launch (rack-local preferred). Any
// launch resets the job's skip count. An offer costs O(jobs with pending
// maps) beyond one filtering pass and allocates nothing (DESIGN.md §4m).
type Fair struct {
	// MaxSkips is the node-level delay-scheduling patience in scheduling
	// opportunities (Zaharia's D1): a job may launch rack-local once it
	// has been skipped this many times.
	MaxSkips int
	// RackSkips is the additional rack-level patience (D2): off-rack
	// launches are allowed only after MaxSkips+RackSkips skips. On a
	// single-rack cluster this second level is moot (everything is
	// rack-local); on the multi-rack EC2 profile it is what keeps traffic
	// inside the rack.
	RackSkips int

	// jobs holds the active jobs and their skip counts in arrival order.
	jobs []fairJob
	// order is the reusable per-offer list of indices into jobs, and
	// poolLoad the reusable pool-load accumulator (multi-pool offers only).
	order    []int
	poolLoad map[string]int
}

// fairJob is one active job with its delay-scheduling skip count.
type fairJob struct {
	j     *mapreduce.Job
	skips int
}

// NewFair returns a Fair scheduler with the given node-level patience;
// non-positive means DefaultMaxSkips. The rack-level patience defaults to
// the same value (use NewFairTwoLevel for explicit control).
func NewFair(maxSkips int) *Fair { return NewFairTwoLevel(maxSkips, -1) }

// NewFairTwoLevel returns a Fair scheduler with explicit node-level (d1)
// and rack-level (d2) patience, matching the two thresholds of the delay
// scheduling algorithm; a negative d2 means the same as d1.
func NewFairTwoLevel(d1, d2 int) *Fair {
	if d1 <= 0 {
		d1 = DefaultMaxSkips
	}
	if d2 < 0 {
		d2 = d1
	}
	return &Fair{MaxSkips: d1, RackSkips: d2}
}

// Name implements mapreduce.TaskSelector.
func (s *Fair) Name() string { return "fair" }

// AddJob implements mapreduce.TaskSelector.
func (s *Fair) AddJob(j *mapreduce.Job) {
	s.jobs = append(s.jobs, fairJob{j: j})
}

// RemoveJob implements mapreduce.TaskSelector.
func (s *Fair) RemoveJob(j *mapreduce.Job) {
	s.jobs = slices.DeleteFunc(s.jobs, func(fj fairJob) bool { return fj.j == j })
}

// Jobs reports the number of registered jobs.
func (s *Fair) Jobs() int { return len(s.jobs) }

// Skips reports a job's current skip count (testing/introspection).
func (s *Fair) Skips(j *mapreduce.Job) int {
	if i := slices.IndexFunc(s.jobs, func(fj fairJob) bool { return fj.j == j }); i >= 0 {
		return s.jobs[i].skips
	}
	return 0
}

// fairOrder fills order with the indices of the jobs that have pending
// maps, in hierarchical fair order (the Hadoop Fair Scheduler's two-level
// policy): pools by the running maps of all their jobs, the pool furthest
// below its share first, then jobs by their own running maps. Arrival
// order breaks ties at both levels. Filtering before the stable sort drops
// only jobs SelectMapTask would pass over untouched (DESIGN.md §4m).
func (s *Fair) fairOrder() []int {
	s.order = s.order[:0]
	multiPool := false
	for i, fj := range s.jobs {
		if fj.j.PendingMaps() == 0 {
			continue
		}
		if len(s.order) > 0 && fj.j.Spec.Pool != s.jobs[s.order[0]].j.Spec.Pool {
			multiPool = true
		}
		s.order = append(s.order, i)
	}
	if len(s.order) < 2 {
		return s.order
	}
	if multiPool {
		if s.poolLoad == nil {
			s.poolLoad = make(map[string]int, 4)
		}
		clear(s.poolLoad)
		for _, fj := range s.jobs {
			s.poolLoad[fj.j.Spec.Pool] += fj.j.RunningMaps()
		}
	}
	slices.SortStableFunc(s.order, func(a, b int) int {
		ja, jb := s.jobs[a].j, s.jobs[b].j
		if multiPool && ja.Spec.Pool != jb.Spec.Pool {
			if c := cmp.Compare(s.poolLoad[ja.Spec.Pool], s.poolLoad[jb.Spec.Pool]); c != 0 {
				return c
			}
			return cmp.Compare(ja.Spec.Pool, jb.Spec.Pool)
		}
		return cmp.Compare(ja.RunningMaps(), jb.RunningMaps())
	})
	return s.order
}

// SelectMapTask implements mapreduce.TaskSelector with delay scheduling
// (Zaharia et al., Algorithm 1): in fair order, a job with a node-local
// block launches it right away; a job that has exhausted its skip budget
// launches non-locally; otherwise the job is skipped and its budget
// shrinks.
func (s *Fair) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	for _, i := range s.fairOrder() {
		fj := &s.jobs[i]
		j := fj.j
		if b, ok := j.TakeLocalBlock(node); ok {
			fj.skips = 0
			return j, b, true
		}
		if fj.skips >= s.MaxSkips {
			if b, ok := j.TakeRackLocalBlock(node); ok {
				fj.skips = 0
				return j, b, true
			}
			if fj.skips >= s.MaxSkips+s.RackSkips {
				if b, ok := j.TakeAnyBlock(); ok {
					fj.skips = 0
					return j, b, true
				}
			}
		}
		fj.skips++
	}
	return nil, 0, false
}

// SelectReduceTask implements mapreduce.TaskSelector: the job furthest
// below its fair reduce share (fewest running reduces) goes first.
func (s *Fair) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	var best *mapreduce.Job
	for _, fj := range s.jobs {
		j := fj.j
		if j.PendingReduces() == 0 {
			continue
		}
		if best == nil || j.RunningReduces() < best.RunningReduces() {
			best = j
		}
	}
	return best, best != nil
}

// FromName builds a scheduler by CLI name ("fifo" or "fair"); maxSkips
// only applies to fair (<= 0 uses the default).
func FromName(name string, maxSkips int) (mapreduce.TaskSelector, bool) {
	switch name {
	case "fifo":
		return NewFIFO(), true
	case "fair", "fair-delay", "delay":
		return NewFair(maxSkips), true
	}
	return nil, false
}
