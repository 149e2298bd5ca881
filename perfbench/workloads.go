package main

import "dare"

// sizes are the input sizes of one simulation of each workload. The
// self-test runs the same workloads at tinySizes.
type sizes struct {
	swimJobs   int // jobs per swim-fair trace
	scaleNodes int // scale-20k cluster size
	scaleJobs  int // wl1 prefix replayed on it
	faultJobs  int // jobs per faults-durable trace
}

var (
	fullSizes = sizes{swimJobs: 3000, scaleNodes: 20000, scaleJobs: 60, faultJobs: 1000}
	tinySizes = sizes{swimJobs: 40, scaleNodes: 400, scaleJobs: 10, faultJobs: 60}
)

// workloadDef is one named workload. options builds simulation inputs
// from a simulation seed; durable workloads also record an event log,
// checkpoint periodically and stage a crash in every simulation.
type workloadDef struct {
	name    string
	why     string
	durable bool
	// traceSims is how many simulations a traced run attributes; the
	// per-layer metrics are their per-simulation means, so counts repeat
	// exactly for a given seed.
	traceSims int
	// reps is how many set-up and interrupted-recovery samples each
	// simulation takes: one where a run has many simulations or a sample
	// costs a second of host time.
	reps int
	// simSeconds is the host time one untraced simulation takes on the
	// 2-vCPU Xeon VM the sizes were chosen on; a run of --seconds does
	// --seconds/simSeconds simulations (see simCount).
	simSeconds float64
	options    func(seed uint64, sz sizes) dare.Options
}

var workloads = []*workloadDef{
	{
		name:       "swim-fair",
		why:        "paper headline config run long: EC2, wl2-shaped SWIM trace, Fair+delay, ElephantTrap; scheduler-bound, set-up and DARE writes quiet",
		traceSims:  2,
		reps:       3,
		simSeconds: 3.5,
		options: func(seed uint64, sz sizes) dare.Options {
			return dare.Options{
				Profile:   dare.EC2(),
				Workload:  wl2Shaped(seed, sz.swimJobs),
				Scheduler: "fair",
				Policy:    dare.DefaultPolicy(),
				Seed:      seed,
			}
		},
	},
	{
		name:       "scale-20k",
		why:        "20k-node target: short wl1 prefix under FIFO+ElephantTrap; set-up (placement, per-node RNGs) and heartbeats dominate, scheduler idle",
		traceSims:  2,
		reps:       1,
		simSeconds: 7,
		options: func(seed uint64, sz sizes) dare.Options {
			wl := dare.WL1(seed)
			wl.Jobs = wl.Jobs[:min(sz.scaleJobs, len(wl.Jobs))]
			return dare.Options{
				Profile:   dare.ScaleProfile(sz.scaleNodes),
				Workload:  wl,
				Scheduler: "fifo",
				Policy:    dare.DefaultPolicy(),
				Seed:      seed,
			}
		},
	},
	{
		name:       "faults-durable",
		why:        "write and failure paths: churn, chaos with master crashes, invariant checker, JSONL event log, checkpoints and a staged crash with state-mode recovery",
		durable:    true,
		traceSims:  3,
		reps:       1,
		simSeconds: 1.4,
		options: func(seed uint64, sz sizes) dare.Options {
			wl := wl2Shaped(seed, sz.faultJobs)
			span := wl.Jobs[len(wl.Jobs)-1].Arrival
			churn := dare.DefaultChurnSpec(span, dare.EC2().Slaves)
			// Fully resolved, so the benchmark's own wiring needs none of
			// the runner's defaulting: master crashes on, journal recovery.
			chaos := dare.DefaultChaosSpec(span)
			chaos.MasterWeight = 1
			chaos.MasterDown = span / 16
			chaos.MasterRecovery = "journal"
			return dare.Options{
				Profile:         dare.EC2(),
				Workload:        wl,
				Scheduler:       "fifo",
				Policy:          dare.DefaultPolicy(),
				Seed:            seed,
				Churn:           &churn,
				Chaos:           &chaos,
				CheckInvariants: true,
			}
		},
	},
}

// wl2Shaped is a SWIM wl2-shaped trace of n jobs with the knobs the
// service mode uses for wl2 (a large job every 10, 0.6 s mean gap).
func wl2Shaped(seed uint64, n int) *dare.Workload {
	return dare.GenerateWorkload(dare.WorkloadConfig{
		Name: "wl2", Seed: seed, NumJobs: n, LargeEvery: 10, MeanInterarrival: 0.6,
	})
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
