package scheduler

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/snapshot"
	"dare/internal/topology"
	"dare/internal/workload"
)

// refFair is the Fair scheduler as it was before offers were filtered to
// jobs with pending maps: every offer copies and stably sorts all active
// jobs, and skip counts live in a map. It is kept verbatim as the
// differential oracle for Fair (DESIGN.md §4m).
type refFair struct {
	MaxSkips  int
	RackSkips int

	jobs     []*mapreduce.Job
	skips    map[*mapreduce.Job]int
	scratch  []*mapreduce.Job
	poolLoad map[string]int
}

func newRefFair(d1, d2 int) *refFair {
	return &refFair{MaxSkips: d1, RackSkips: d2, skips: make(map[*mapreduce.Job]int), poolLoad: make(map[string]int, 4)}
}

func (s *refFair) Name() string { return "fair" }

func (s *refFair) AddJob(j *mapreduce.Job) {
	s.jobs = append(s.jobs, j)
	s.skips[j] = 0
}

func (s *refFair) RemoveJob(j *mapreduce.Job) {
	for i, cur := range s.jobs {
		if cur == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	delete(s.skips, j)
}

func (s *refFair) Skips(j *mapreduce.Job) int { return s.skips[j] }

func (s *refFair) fairOrder() []*mapreduce.Job {
	s.scratch = s.scratch[:0]
	s.scratch = append(s.scratch, s.jobs...)
	if s.poolLoad == nil {
		s.poolLoad = make(map[string]int, 4)
	}
	clear(s.poolLoad)
	poolLoad := s.poolLoad
	multiPool := false
	for _, j := range s.jobs {
		poolLoad[j.Spec.Pool] += j.RunningMaps()
		if j.Spec.Pool != s.jobs[0].Spec.Pool {
			multiPool = true
		}
	}
	sort.SliceStable(s.scratch, func(a, b int) bool {
		ja, jb := s.scratch[a], s.scratch[b]
		if multiPool && ja.Spec.Pool != jb.Spec.Pool {
			la, lb := poolLoad[ja.Spec.Pool], poolLoad[jb.Spec.Pool]
			if la != lb {
				return la < lb
			}
			return ja.Spec.Pool < jb.Spec.Pool
		}
		return ja.RunningMaps() < jb.RunningMaps()
	})
	return s.scratch
}

func (s *refFair) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	for _, j := range s.fairOrder() {
		if j.PendingMaps() == 0 {
			continue
		}
		if b, ok := j.TakeLocalBlock(node); ok {
			s.skips[j] = 0
			return j, b, true
		}
		if s.skips[j] >= s.MaxSkips {
			if b, ok := j.TakeRackLocalBlock(node); ok {
				s.skips[j] = 0
				return j, b, true
			}
			if s.skips[j] >= s.MaxSkips+s.RackSkips {
				if b, ok := j.TakeAnyBlock(); ok {
					s.skips[j] = 0
					return j, b, true
				}
			}
		}
		s.skips[j]++
	}
	return nil, 0, false
}

func (s *refFair) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	var best *mapreduce.Job
	for _, j := range s.jobs {
		if j.PendingReduces() == 0 {
			continue
		}
		if best == nil || j.RunningReduces() < best.RunningReduces() {
			best = j
		}
	}
	return best, best != nil
}

func (s *refFair) EncodeState(e *snapshot.Enc) {
	e.Int(s.MaxSkips)
	e.Int(s.RackSkips)
	e.U32(uint32(len(s.jobs)))
	for _, j := range s.jobs {
		e.Int(j.Spec.ID)
		e.Int(s.skips[j])
	}
}

// fairUnderTest is the surface both implementations share.
type fairUnderTest interface {
	mapreduce.TaskSelector
	Skips(j *mapreduce.Job) int
	EncodeState(e *snapshot.Enc)
}

// fairView renders a scheduler's observable state for comparison: the
// EncodeState bytes (the checkpoint image, the only state walk) and the
// skip count of every job in jobs (registered or not), keyed by job ID.
func fairView(s fairUnderTest, jobs []*mapreduce.Job) string {
	e := snapshot.NewEnc()
	s.EncodeState(e)
	var b bytes.Buffer
	fmt.Fprintf(&b, "image %x skips", e.Data())
	for _, j := range jobs {
		fmt.Fprintf(&b, " %d:%d", j.Spec.ID, s.Skips(j))
	}
	return b.String()
}

func jobID(j *mapreduce.Job) int {
	if j == nil {
		return -1
	}
	return j.Spec.ID
}

// oracleCluster builds a two-rack cluster with three files; identical
// seeds give identical block placements, so two copies can host twin job
// sets for the two implementations.
func oracleCluster(t *testing.T, seed uint64) (*mapreduce.Cluster, []*dfs.File) {
	t.Helper()
	p := config.CCT()
	p.Slaves = 12
	p.RackSize = 6
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var files []*dfs.File
	for i, n := range []int{30, 12, 20} {
		f, err := c.NN.CreateFile(fmt.Sprintf("f%d", i), n, p.BlockSizeBytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return c, files
}

// TestFairMatchesReferenceOps drives Fair and refFair through the same
// seeded random sequence of AddJob, RemoveJob, map and reduce offers on
// random nodes, and requeues of launched blocks, across one to three
// pools and jobs whose maps drain. After every step both must return the
// same (job, block, ok), the same skip counts, and byte-equal state
// images.
func TestFairMatchesReferenceOps(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0xFA1))
			cA, filesA := oracleCluster(t, seed)
			cB, filesB := oracleCluster(t, seed)
			pools := []string{"", "batch", "adhoc"}[:1+rng.IntN(3)]
			var specs []workload.Job
			for id := 0; id < 10+rng.IntN(20); id++ {
				fi := rng.IntN(len(filesA))
				n := len(filesA[fi].Blocks)
				maps := 1 + rng.IntN(min(8, n))
				specs = append(specs, workload.Job{
					ID: id, Pool: pools[rng.IntN(len(pools))], Arrival: float64(id), File: fi,
					FirstBlock: rng.IntN(n - maps + 1), NumMaps: maps, CPUPerTask: 1,
				})
			}
			var jobsA, jobsB []*mapreduce.Job
			for _, sp := range specs {
				jobsA = append(jobsA, mapreduce.NewJob(sp, filesA[sp.File], cA))
				jobsB = append(jobsB, mapreduce.NewJob(sp, filesB[sp.File], cB))
			}
			d1, d2 := rng.IntN(4), rng.IntN(4)
			got := NewFairTwoLevel(d1, d2)
			want := newRefFair(got.MaxSkips, got.RackSkips)
			registered := make([]bool, len(specs))
			type launch struct {
				id int
				b  dfs.BlockID
			}
			var launched []launch
			for step := 0; step < 400; step++ {
				var op string
				switch r := rng.IntN(20); {
				case r < 3:
					i := rng.IntN(len(specs))
					op = fmt.Sprintf("add %d", i)
					if !registered[i] {
						registered[i] = true
						got.AddJob(jobsA[i])
						want.AddJob(jobsB[i])
					}
				case r < 4:
					i := rng.IntN(len(specs))
					op = fmt.Sprintf("remove %d", i)
					registered[i] = false
					got.RemoveJob(jobsA[i])
					want.RemoveJob(jobsB[i])
				case r < 5 && len(launched) > 0:
					k := rng.IntN(len(launched))
					l := launched[k]
					launched = append(launched[:k], launched[k+1:]...)
					op = fmt.Sprintf("requeue %d/%d", l.id, l.b)
					jobsA[l.id].Requeue(l.b)
					jobsB[l.id].Requeue(l.b)
				case r < 6:
					node := topology.NodeID(rng.IntN(12))
					op = fmt.Sprintf("reduce@%d", node)
					ja, oka := got.SelectReduceTask(node, float64(step))
					jb, okb := want.SelectReduceTask(node, float64(step))
					if jobID(ja) != jobID(jb) || oka != okb {
						t.Fatalf("step %d %s: got (%d,%v), want (%d,%v)", step, op, jobID(ja), oka, jobID(jb), okb)
					}
				default:
					node := topology.NodeID(rng.IntN(12))
					op = fmt.Sprintf("map@%d", node)
					ja, ba, oka := got.SelectMapTask(node, float64(step))
					jb, bb, okb := want.SelectMapTask(node, float64(step))
					if jobID(ja) != jobID(jb) || ba != bb || oka != okb {
						t.Fatalf("step %d %s: got (%d,%d,%v), want (%d,%d,%v)", step, op, jobID(ja), ba, oka, jobID(jb), bb, okb)
					}
					if oka {
						launched = append(launched, launch{id: ja.Spec.ID, b: ba})
					}
				}
				if g, w := fairView(got, jobsA), fairView(want, jobsB); g != w {
					t.Fatalf("step %d %s: state diverged\n got %s\nwant %s", step, op, g, w)
				}
			}
		})
	}
}

// probe wraps a scheduler inside a real tracker and logs every offer's
// outcome followed by the scheduler's full observable state.
type probe struct {
	fairUnderTest
	jobs []*mapreduce.Job
	log  []string
}

func (p *probe) AddJob(j *mapreduce.Job) {
	p.fairUnderTest.AddJob(j)
	p.jobs = append(p.jobs, j)
	p.record("add", jobID(j), 0, true)
}

func (p *probe) RemoveJob(j *mapreduce.Job) {
	p.fairUnderTest.RemoveJob(j)
	p.record("remove", jobID(j), 0, true)
}

func (p *probe) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	j, b, ok := p.fairUnderTest.SelectMapTask(node, now)
	p.record(fmt.Sprintf("map@%d t=%g", node, now), jobID(j), b, ok)
	return j, b, ok
}

func (p *probe) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	j, ok := p.fairUnderTest.SelectReduceTask(node, now)
	p.record(fmt.Sprintf("reduce@%d t=%g", node, now), jobID(j), 0, ok)
	return j, ok
}

func (p *probe) record(op string, id int, b dfs.BlockID, ok bool) {
	p.log = append(p.log, fmt.Sprintf("%s -> (%d,%d,%v) %s", op, id, b, ok, fairView(p.fairUnderTest, p.jobs)))
}

// oracleWorkload is a small multi-pool trace whose jobs overlap, so
// offers see a mix of running, waiting and drained jobs. A small gap
// between arrivals queues more jobs than an insertion sort handles, so an
// unstable sort would reorder ties.
func oracleWorkload(rng *rand.Rand, gap float64) *workload.Workload {
	wl := &workload.Workload{
		Name:  "fair-oracle",
		Files: []workload.FileSpec{{Name: "big", Blocks: 60}, {Name: "small", Blocks: 12}},
	}
	pools := []string{"", "batch", "adhoc"}[:1+rng.IntN(3)]
	at := 0.0
	for id := 0; id < 40; id++ {
		at += rng.Float64() * gap
		fi := rng.IntN(2)
		n := wl.Files[fi].Blocks
		maps := 1 + rng.IntN(min(20, n))
		reduces := rng.IntN(3)
		wl.Jobs = append(wl.Jobs, workload.Job{
			ID: id, Pool: pools[rng.IntN(len(pools))], Arrival: at, File: fi,
			FirstBlock: rng.IntN(n - maps + 1), NumMaps: maps, CPUPerTask: 0.5 + rng.Float64()*2,
			NumReduces: reduces, ReduceTime: 1,
		})
	}
	return wl
}

// TestFairMatchesReferenceTracker runs the same seeded multi-pool
// workload through two real trackers, one scheduled by Fair and one by
// refFair, so launches and completions move RunningMaps and reduces
// become schedulable. Every offer, arrival and retirement must log the
// same outcome and the same scheduler state on both sides.
func TestFairMatchesReferenceTracker(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			gap := []float64{0.2, 3}[seed%2]
			run := func(s fairUnderTest) []string {
				p := config.CCT()
				p.Slaves = 12
				p.RackSize = 6
				c, err := mapreduce.NewCluster(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				pr := &probe{fairUnderTest: s}
				tr, err := mapreduce.NewTracker(c, oracleWorkload(rand.New(rand.NewPCG(seed, 0x7AC)), gap), pr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Run(); err != nil {
					t.Fatal(err)
				}
				return pr.log
			}
			d1 := 1 + int(seed%3)
			got := run(NewFairTwoLevel(d1, int(seed%2)))
			want := run(newRefFair(d1, int(seed%2)))
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("call %d diverged\n got %s\nwant %s", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("call count %d, want %d", len(got), len(want))
			}
			if len(got) < 100 {
				t.Fatalf("only %d scheduler calls; the workload is too small to compare", len(got))
			}
		})
	}
}
