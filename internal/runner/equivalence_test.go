package runner

import (
	"bytes"
	"reflect"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/workload"
)

// equivRun executes opts with the event recorder attached, so every
// equivalence check below also proves the two paths publish the exact
// same event stream, byte for byte.
func equivRun(t *testing.T, opts Options) (*Output, []byte) {
	t.Helper()
	var buf bytes.Buffer
	opts.EventLog = &buf
	out, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestIndexedMatchesLinearScan is the determinism contract of the inverted
// locality index: for every profile, scheduler, and seed, the indexed
// block-selection path must produce exactly the same simulation as the
// original O(pending) linear scan — same per-job results, same summary,
// byte for byte.
func TestIndexedMatchesLinearScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run equivalence matrix")
	}
	profiles := map[string]func() *config.Profile{
		"cct": config.CCT,
		"ec2": config.EC2,
	}
	// wl2's large jobs (60+ maps) are the ones that actually build the
	// inverted index — jobs under indexMinMaps use the scan either way —
	// so it is the workload that makes this test bite; wl1 covers the
	// hybrid's small-job path.
	workloads := map[string]func(uint64) *workload.Workload{
		"wl1": workload.WL1,
		"wl2": workload.WL2,
	}
	for name, profile := range profiles {
		for wlName, wl := range workloads {
			for _, sched := range []string{"fifo", "fair"} {
				for _, seed := range []uint64{7, 42, 99} {
					opts := Options{
						Profile:   profile(),
						Workload:  truncate(wl(seed), 60),
						Scheduler: sched,
						Policy:    PolicyFor(core.ElephantTrapPolicy),
						Seed:      seed,
					}
					indexed, indexedLog := equivRun(t, opts)
					opts.linearScan = true
					linear, linearLog := equivRun(t, opts)
					if !reflect.DeepEqual(indexed.Summary, linear.Summary) {
						t.Errorf("%s/%s/%s seed %d: summaries diverge\nindexed: %+v\nlinear:  %+v",
							name, wlName, sched, seed, indexed.Summary, linear.Summary)
					}
					if !reflect.DeepEqual(indexed.Results, linear.Results) {
						t.Errorf("%s/%s/%s seed %d: per-job results diverge", name, wlName, sched, seed)
					}
					if !bytes.Equal(indexedLog, linearLog) {
						t.Errorf("%s/%s/%s seed %d: event logs diverge", name, wlName, sched, seed)
					}
				}
			}
		}
	}
}

// TestIndexedMatchesLinearScanUnderFailures drives the replica-removal
// paths (node failure, repair re-replication) through both selection
// paths: the index handles removals lazily, so this is where a staleness
// bug would surface.
func TestIndexedMatchesLinearScanUnderFailures(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		wl := truncate(workload.WL2(seed), 60)
		span := wl.Jobs[len(wl.Jobs)-1].Arrival
		opts := Options{
			Profile:   config.CCT(),
			Workload:  wl,
			Scheduler: "fifo",
			Policy:    PolicyFor(core.GreedyLRUPolicy),
			Seed:      seed,
			Failures: []NodeFailure{
				{Node: 2, At: span * 0.3},
				{Node: 7, At: span * 0.6},
			},
		}
		indexed, indexedLog := equivRun(t, opts)
		opts.linearScan = true
		linear, linearLog := equivRun(t, opts)
		if !reflect.DeepEqual(indexed.Summary, linear.Summary) {
			t.Errorf("seed %d: summaries diverge under failures\nindexed: %+v\nlinear:  %+v",
				seed, indexed.Summary, linear.Summary)
		}
		if !reflect.DeepEqual(indexed.Results, linear.Results) {
			t.Errorf("seed %d: per-job results diverge under failures", seed)
		}
		if !bytes.Equal(indexedLog, linearLog) {
			t.Errorf("seed %d: event logs diverge under failures", seed)
		}
	}
}

// TestIndexedMatchesLinearScanUnderChurn extends the equivalence contract
// to the full churn machinery: recoveries re-open nodes for placement (the
// index must pick up replicas repaired onto a rejoined node) and rack
// failures bulk-invalidate whole byRack heaps at once. The invariant
// checker rides along so any index/metadata divergence fails loudly at the
// event that caused it, not at the end-of-run diff.
func TestIndexedMatchesLinearScanUnderChurn(t *testing.T) {
	profile := config.CCT()
	profile.RackSize = 5
	profile.ReplicationFactor = 2
	for _, seed := range []uint64{5, 11, 42} {
		for _, sched := range []string{"fifo", "fair"} {
			wl := truncate(workload.WL2(seed), 60)
			span := wl.Jobs[len(wl.Jobs)-1].Arrival
			opts := Options{
				Profile:   profile,
				Workload:  wl,
				Scheduler: sched,
				Policy:    PolicyFor(core.GreedyLRUPolicy),
				Seed:      seed,
				Failures: []NodeFailure{
					{Node: 2, At: span * 0.2},
					{Node: 7, At: span * 0.5},
				},
				Recoveries: []NodeRecovery{
					{Node: 2, At: span * 0.6},
					{Node: 7, At: span * 0.9},
				},
				RackFailures: []RackFailure{
					{Rack: 1, At: span * 0.75},
				},
				CheckInvariants: true,
			}
			indexed, indexedLog := equivRun(t, opts)
			opts.linearScan = true
			linear, linearLog := equivRun(t, opts)
			if !reflect.DeepEqual(indexed.Summary, linear.Summary) {
				t.Errorf("%s seed %d: summaries diverge under churn\nindexed: %+v\nlinear:  %+v",
					sched, seed, indexed.Summary, linear.Summary)
			}
			if !reflect.DeepEqual(indexed.Results, linear.Results) {
				t.Errorf("%s seed %d: per-job results diverge under churn", sched, seed)
			}
			if !reflect.DeepEqual(indexed.FailureEvents, linear.FailureEvents) ||
				!reflect.DeepEqual(indexed.RecoveryEvents, linear.RecoveryEvents) {
				t.Errorf("%s seed %d: churn event records diverge", sched, seed)
			}
			if !bytes.Equal(indexedLog, linearLog) {
				t.Errorf("%s seed %d: event logs diverge under churn", sched, seed)
			}
		}
	}
}
