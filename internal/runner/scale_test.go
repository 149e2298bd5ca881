package runner

import (
	"testing"

	"dare/internal/event"
	"dare/internal/workload"
)

// TestScaleProfileValidates makes sure every ladder size builds a legal
// profile (the benchmark would otherwise die mid-study).
func TestScaleProfileValidates(t *testing.T) {
	for _, n := range scaleSizes {
		if err := ScaleProfile(n).Validate(); err != nil {
			t.Errorf("ScaleProfile(%d): %v", n, err)
		}
	}
}

// BenchmarkScale1k is the CI smoke body: one full 1000-node run per
// iteration keeps -benchtime 1x cheap while still exercising the whole
// scale path (big-cluster construction, heartbeat driving, drain).
func BenchmarkScale1k(b *testing.B) {
	const seed = 42
	opts := Options{
		Profile:   ScaleProfile(1000),
		Workload:  truncate(workload.WL1(seed), 20),
		Scheduler: "fifo",
		Seed:      seed,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if out.EventCounts[event.Heartbeat] == 0 {
			b.Fatal("run published no heartbeats")
		}
	}
}
