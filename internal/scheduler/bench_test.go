package scheduler

import (
	"fmt"
	"testing"

	"dare/internal/config"
	"dare/internal/mapreduce"
	"dare/internal/topology"
	"dare/internal/workload"
)

func benchJobs(b *testing.B, c *mapreduce.Cluster, n int) []*mapreduce.Job {
	b.Helper()
	f, err := c.NN.CreateFile("bench", 200, c.Profile.BlockSizeBytes(), 0)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]*mapreduce.Job, n)
	for i := range jobs {
		spec := workload.Job{ID: i, Arrival: float64(i), File: 0, FirstBlock: (i * 7) % 180, NumMaps: 10, CPUPerTask: 1}
		jobs[i] = mapreduce.NewJob(spec, f, c)
	}
	return jobs
}

// BenchmarkFIFOSelect measures the head-of-line selection path with a deep
// queue.
func BenchmarkFIFOSelect(b *testing.B) {
	p := config.CCT()
	c, err := mapreduce.NewCluster(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	s := NewFIFO()
	for _, j := range benchJobs(b, c, 50) {
		s.AddJob(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, blk, ok := s.SelectMapTask(topology.NodeID(i%19), 0)
		if ok {
			// Put the block back so the queue never drains.
			s.RemoveJob(j)
			s.AddJob(j)
			_ = blk
			b.StopTimer()
			refill(b, c, s, j)
			b.StartTimer()
		}
	}
}

// refill replaces a drained job with a fresh identical one.
func refill(b *testing.B, c *mapreduce.Cluster, s *FIFO, old *mapreduce.Job) {
	if old.PendingMaps() > 0 {
		return
	}
	s.RemoveJob(old)
	spec := old.Spec
	s.AddJob(mapreduce.NewJob(spec, old.File, c))
}

// BenchmarkFairSelect measures the fair-order sort plus delay-scheduling
// bookkeeping per offer. "busy" offers to 50 jobs that all hold pending
// maps; "idle" offers to 50 active jobs of which only 2 hold pending maps,
// the shape of most offers in a long Fair run (DESIGN.md §4m).
func BenchmarkFairSelect(b *testing.B) {
	p := config.CCT()
	for _, shape := range []struct {
		name string
		// pending says whether the i-th of the 50 jobs holds pending maps.
		pending func(i int) bool
	}{
		{"busy", func(int) bool { return true }},
		{"idle", func(i int) bool { return i%25 == 24 }},
	} {
		b.Run(shape.name, func(b *testing.B) {
			c, err := mapreduce.NewCluster(p, 2)
			if err != nil {
				b.Fatal(err)
			}
			s := NewFair(8)
			for i, j := range benchJobs(b, c, 50) {
				s.AddJob(j)
				if !shape.pending(i) {
					drain(j)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, _, ok := s.SelectMapTask(topology.NodeID(i%19), float64(i))
				if ok && j.PendingMaps() == 0 {
					b.StopTimer()
					s.RemoveJob(j)
					s.AddJob(mapreduce.NewJob(j.Spec, j.File, c))
					b.StartTimer()
				}
			}
		})
	}
}

// drain takes every pending map of j, leaving it active but with nothing
// to schedule.
func drain(j *mapreduce.Job) {
	for j.PendingMaps() > 0 {
		j.TakeAnyBlock()
	}
}

// TestFairSelectAllocs guards the offer path: once warm, neither map nor
// reduce selection allocates, with one pool or several.
func TestFairSelectAllocs(t *testing.T) {
	for _, pools := range []int{1, 3} {
		c, err := mapreduce.NewCluster(config.CCT(), 2)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.NN.CreateFile("allocs", 200, c.Profile.BlockSizeBytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		s := NewFair(8)
		for i := 0; i < 50; i++ {
			spec := workload.Job{ID: i, Pool: fmt.Sprint(i % pools), Arrival: float64(i), File: 0,
				FirstBlock: (i * 7) % 180, NumMaps: 10, CPUPerTask: 1, NumReduces: 1, ReduceTime: 1}
			s.AddJob(mapreduce.NewJob(spec, f, c))
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			node := topology.NodeID(i % 19)
			s.SelectMapTask(node, float64(i))
			s.SelectReduceTask(node, float64(i))
			i++
		})
		if allocs != 0 {
			t.Fatalf("%d pools: %.1f allocs per offer, want 0", pools, allocs)
		}
	}
}
