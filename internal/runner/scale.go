package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/workload"
)

// ScaleRow reports one size of the scale benchmark: the same workload on
// an n-node cluster, heartbeats driven by coalesced cohort events.
type ScaleRow struct {
	// Nodes is the cluster size (slaves).
	Nodes int `json:"nodes"`
	// CPUSeconds is the process CPU time one run consumed (min over reps;
	// see scaleArm for why CPU time and why min).
	CPUSeconds float64 `json:"cpu_seconds"`
	// EngineEvents is the number of simulation events the run executed.
	// This is where coalescing shows: the heartbeat driver schedules one
	// engine event per cohort per interval instead of one per node.
	EngineEvents uint64 `json:"engine_events"`
	// BusEvents is the number of cluster bus events the run published,
	// which makes BusEventsPerSec the useful-work throughput.
	BusEvents uint64 `json:"bus_events"`
	// Heartbeats is the heartbeat share of BusEvents (each node publishes
	// one heartbeat per interval).
	Heartbeats uint64 `json:"heartbeats"`
	// BusEventsPerSec is BusEvents / CPUSeconds.
	BusEventsPerSec float64 `json:"bus_events_per_sec"`
	// EngineEventsPerSec is EngineEvents / CPUSeconds.
	EngineEventsPerSec float64 `json:"engine_events_per_sec"`
	// AllocsPerBusEvent is heap allocations (runtime Mallocs delta) per bus
	// event published.
	AllocsPerBusEvent float64 `json:"allocs_per_bus_event"`
	// HeartbeatShare is Heartbeats / BusEvents — the heartbeat tax.
	HeartbeatShare float64 `json:"heartbeat_share"`
}

// scaleSizes is the cluster-size ladder of the scale benchmark (A16).
var scaleSizes = []int{1000, 4000, 10000, 20000}

// ScaleProfile builds the n-node benchmark cluster: a dedicated profile
// with CCT's calibrated performance models, 40-node racks, and CCT's
// aggressive 0.25 s heartbeat — deliberately kept short at scale so the
// benchmark measures the heartbeat machinery under maximum pressure.
func ScaleProfile(nodes int) *config.Profile {
	p := config.CCT()
	p.Name = fmt.Sprintf("scale-%d", nodes)
	p.Slaves = nodes
	p.RackSize = 40
	return p
}

// ScaleStudy benchmarks the heartbeat-driven simulation across cluster
// sizes: for each size in {1k, 4k, 10k, 20k} it replays the same workload,
// measuring process CPU time, engine events, bus events, and allocations.
// Sizes run serially — never under the sweep pool — because CPU-time and
// Mallocs deltas are only meaningful with the process otherwise quiet.
func ScaleStudy(jobs int, seed uint64) ([]ScaleRow, error) {
	if jobs <= 0 {
		jobs = 120
	}
	var rows []ScaleRow
	for _, n := range scaleSizes {
		row, err := scaleArm(n, Options{
			Profile:   ScaleProfile(n),
			Workload:  truncate(workload.WL1(seed), jobs),
			Scheduler: "fifo",
			Policy:    core.Config{Kind: core.NonePolicy},
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scaleReps is how many timed repetitions each cluster size runs; the row
// reports the minimum, so more reps strictly tighten the estimate.
const scaleReps = 5

// scaleArm measures one cluster size: a discarded warm-up run, then
// scaleReps timed reps. Each rep is timed in process CPU seconds, not wall
// clock, so co-tenant steal and involuntary preemption stay out of it, and
// the row keeps the minimum: host timing noise is strictly additive, so
// the smallest sample is the tightest bound on intrinsic cost.
func scaleArm(nodes int, opts Options) (ScaleRow, error) {
	row := ScaleRow{Nodes: nodes}
	// Park the GC pacer for the duration of the arm, so a collection cycle
	// cannot land inside one rep's timed region; the explicit runtime.GC()
	// before every sample keeps the heap bounded.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now() // warm-up: page-in code and data paths
	if _, err := Run(opts); err != nil {
		return row, fmt.Errorf("runner: scale/%d: %w", nodes, err)
	}
	// Size the timed region to >=~400ms: a single short run sits at the
	// host timer noise floor. The large sizes already exceed it with a
	// single run.
	batch := 1
	if w := time.Since(start).Seconds(); w > 0 {
		batch = min(int(0.4/w)+1, 16)
	}
	var cpus, mallocs []float64
	for rep := 0; rep < scaleReps; rep++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		startCPU := cpuSeconds()
		var out *Output
		for b := 0; b < batch; b++ {
			o, err := Run(opts)
			if err != nil {
				return row, fmt.Errorf("runner: scale/%d: %w", nodes, err)
			}
			out = o
		}
		cpus = append(cpus, (cpuSeconds()-startCPU)/float64(batch))
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/float64(batch))
		row.EngineEvents = out.EventsProcessed
		row.BusEvents = out.EventCounts.Total()
		row.Heartbeats = out.EventCounts[event.Heartbeat]
	}
	cpu := slices.Min(cpus)
	row.CPUSeconds = cpu
	if cpu > 0 {
		row.BusEventsPerSec = float64(row.BusEvents) / cpu
		row.EngineEventsPerSec = float64(row.EngineEvents) / cpu
	}
	if row.BusEvents > 0 {
		row.AllocsPerBusEvent = slices.Min(mallocs) / float64(row.BusEvents)
		row.HeartbeatShare = float64(row.Heartbeats) / float64(row.BusEvents)
	}
	return row, nil
}

// RenderScale formats the scale benchmark table, one row per cluster size.
func RenderScale(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %13s %12s %9s %14s %12s %8s\n",
		"nodes", "engine-events", "bus-events", "cpu(s)", "bus-events/s", "allocs/bus-ev", "hb-share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %13d %12d %9.3f %14.0f %12.3f %8.3f\n",
			r.Nodes, r.EngineEvents, r.BusEvents, r.CPUSeconds, r.BusEventsPerSec, r.AllocsPerBusEvent, r.HeartbeatShare)
	}
	return b.String()
}
