package runner

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/runs.txt from the current code")

// goldenPath holds one line per golden run:
//
//	<name> <sha256 of json.Marshal(Output)> <sha256 of the JSONL event log> <EventsProcessed>
//
// The Output digest is taken with EventsProcessed zeroed, because the
// engine event count has its own column: it measures how much the
// heartbeat driver coalesces, not what the simulated cluster did.
var goldenPath = filepath.Join("testdata", "golden", "runs.txt")

type goldenCase struct {
	name string
	opts Options
}

// goldenCases is the full-stack behaviour pinned by the goldens: whole
// cluster runs (churn, chaos, the invariant checker) whose results and
// event traces must not move under a refactor of any layer.
func goldenCases() []goldenCase {
	var cases []goldenCase
	// A tight-rack RF-2 CCT cluster under Fair with LRU, where churn and
	// chaos bite. The "offgrid" arm moves the DARE announce and lazy-delete
	// delays off the heartbeat grid, so replica announcements land between
	// heartbeat instants rather than on them: an event exactly on a
	// multi-member cohort tick is the one case where cohorts and per-node
	// tickers order differently (DESIGN.md §4g).
	small := config.CCT()
	small.RackSize = 5
	small.ReplicationFactor = 2
	offgrid := PolicyFor(core.GreedyLRUPolicy)
	offgrid.AnnounceDelay = 0.13
	offgrid.LazyDeleteDelay = 0.07
	for _, pol := range []struct {
		name string
		cfg  core.Config
	}{
		{"lru", PolicyFor(core.GreedyLRUPolicy)},
		{"lru-offgrid", offgrid},
	} {
		for _, seed := range []uint64{7, 42} {
			for _, arm := range []string{"plain", "churn", "chaos"} {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("cct-r5/%s/%s/seed%d", pol.name, arm, seed),
					opts: faultArm(Options{
						Profile:         small,
						Workload:        truncate(workload.WL2(seed), 40),
						Scheduler:       "fair",
						Policy:          pol.cfg,
						Seed:            seed,
						CheckInvariants: true,
					}, arm),
				})
			}
		}
	}
	// 512 nodes on 40-node racks: the auto cohort size is exactly 4, so
	// every heartbeat event sweeps real multi-member cohorts, and churn
	// and chaos splice members in and out mid-cohort.
	big := ScaleProfile(512)
	big.ReplicationFactor = 2
	for _, seed := range []uint64{7, 42} {
		for _, arm := range []string{"churn", "chaos"} {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("scale-512/lru-offgrid/%s/seed%d", arm, seed),
				opts: faultArm(Options{
					Profile:         big,
					Workload:        truncate(workload.WL2(seed), 30),
					Scheduler:       "fair",
					Policy:          offgrid,
					Seed:            seed,
					CheckInvariants: true,
				}, arm),
			})
		}
	}
	// The dare-sim configuration matrix at paper scale.
	for _, cfg := range []struct {
		name    string
		profile func() *config.Profile
		sched   string
		policy  core.PolicyKind
	}{
		{"cct/fifo/vanilla", config.CCT, "fifo", core.NonePolicy},
		{"cct/fifo/elephanttrap", config.CCT, "fifo", core.ElephantTrapPolicy},
		{"cct/fair/lru", config.CCT, "fair", core.GreedyLRUPolicy},
		{"ec2/fifo/lru", config.EC2, "fifo", core.GreedyLRUPolicy},
		{"ec2/fair/elephanttrap", config.EC2, "fair", core.ElephantTrapPolicy},
		{"cct/fair/scarlett", config.CCT, "fair", core.ScarlettPolicy},
	} {
		const seed = 42
		cases = append(cases, goldenCase{
			name: "config/" + cfg.name,
			opts: Options{
				Profile:   cfg.profile(),
				Workload:  truncate(workload.WL1(seed), 40),
				Scheduler: cfg.sched,
				Policy:    PolicyFor(cfg.policy),
				Seed:      seed,
			},
		})
	}
	// A scale-benchmark cluster: 1000 nodes, auto cohort size 7.
	cases = append(cases, goldenCase{
		name: "scale-1000/fifo/vanilla",
		opts: Options{
			Profile:   ScaleProfile(1000),
			Workload:  truncate(workload.WL1(42), 20),
			Scheduler: "fifo",
			Seed:      42,
		},
	})
	return cases
}

// faultArm adds the churn or chaos schedule named by arm ("plain" adds
// nothing), scaled to the workload's arrival span.
func faultArm(opts Options, arm string) Options {
	span := opts.Workload.Jobs[len(opts.Workload.Jobs)-1].Arrival
	switch arm {
	case "churn":
		spec := DefaultChurnSpec(span, opts.Profile.Slaves)
		opts.Churn = &spec
	case "chaos":
		spec := DefaultChaosSpec(span)
		opts.Chaos = &spec
	}
	return opts
}

// goldenLine runs opts with the event recorder attached and formats its
// golden line.
func goldenLine(t *testing.T, name string, opts Options) (string, *Output) {
	t.Helper()
	var log bytes.Buffer
	opts.EventLog = &log
	out, err := Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	o := *out
	o.EventsProcessed = 0
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatalf("%s: encoding output: %v", name, err)
	}
	return fmt.Sprintf("%s %x %x %d", name, sha256.Sum256(data), sha256.Sum256(log.Bytes()), out.EventsProcessed), out
}

// readGoldens loads the golden file keyed by run name.
func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// goldenGroups assigns every golden run, by name prefix, to the test that
// checks it. The tests keep the names of the full-stack differentials the
// goldens replaced: each digest was recorded where both arms of that
// differential (calendar vs heap queue, cohort vs per-node heartbeats)
// were still production paths, and shown there to equal both.
var goldenGroups = map[string][]string{
	"TestCalendarMatchesHeapFullStack":  {"cct-r5/lru/"},
	"TestCohortMatchesPerNodeFullStack": {"cct-r5/lru-offgrid/", "scale-512/"},
	"TestCohortMatchesPerNodeConfigs":   {"config/"},
	"TestScaleTraceEquivalence":         {"scale-1000/"},
}

// goldenGroup names the test that checks the golden run name, or "".
func goldenGroup(name string) string {
	for test, prefixes := range goldenGroups {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return test
			}
		}
	}
	return ""
}

// runGoldens runs cases in parallel subtests and returns their golden
// lines in case order.
func runGoldens(t *testing.T, cases []goldenCase) []string {
	got := make([]string, len(cases))
	t.Run("runs", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				line, out := goldenLine(t, c.name, c.opts)
				got[i] = line
				// The cohort driver must actually coalesce: once the auto
				// cohort size exceeds one, the run executes fewer engine
				// events than it publishes heartbeats.
				if c.opts.Profile.Slaves >= 512 && out.EventsProcessed >= out.EventCounts[event.Heartbeat] {
					t.Errorf("%s: %d engine events for %d heartbeats — no coalescing",
						c.name, out.EventsProcessed, out.EventCounts[event.Heartbeat])
				}
			})
		}
	})
	return got
}

// checkGoldens runs the golden runs assigned to the calling test and
// requires each to reproduce its committed output digest, event-log
// digest and engine event count exactly.
func checkGoldens(t *testing.T) {
	t.Helper()
	var cases []goldenCase
	for _, c := range goldenCases() {
		if goldenGroup(c.name) == t.Name() {
			cases = append(cases, c)
		}
	}
	if len(cases) == 0 {
		t.Fatalf("no golden runs assigned to %s", t.Name())
	}
	got := runGoldens(t, cases)
	if t.Failed() {
		return
	}
	want := readGoldens(t)
	for i, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no golden line", c.name)
		} else if got[i] != w {
			t.Errorf("%s diverges from its golden:\n got  %s\n want %s", c.name, got[i], w)
		}
	}
}

// TestCalendarMatchesHeapFullStack pins the tight-rack CCT runs under
// plain, churn and chaos arms whose digests equalled the heap-queue arm.
func TestCalendarMatchesHeapFullStack(t *testing.T) { checkGoldens(t) }

// TestCohortMatchesPerNodeFullStack pins the off-grid announce runs and
// the 512-node runs (auto cohort size 4) whose digests equalled the
// per-node heartbeat arm.
func TestCohortMatchesPerNodeFullStack(t *testing.T) { checkGoldens(t) }

// TestCohortMatchesPerNodeConfigs pins the dare-sim configuration matrix
// at paper scale, whose digests equalled the per-node heartbeat arm.
func TestCohortMatchesPerNodeConfigs(t *testing.T) { checkGoldens(t) }

// TestScaleTraceEquivalence pins the 1000-node run (auto cohort size 7),
// whose digests equalled the per-node heartbeat arm.
func TestScaleTraceEquivalence(t *testing.T) { checkGoldens(t) }

// TestRunGoldens keeps the golden file and goldenCases in step: the file
// holds exactly one line per defined run, and every run is checked by one
// of the tests above. `go test ./internal/runner -run RunGoldens -update`
// reruns every case and rewrites the file; any change to it must be named
// and justified in the change log.
func TestRunGoldens(t *testing.T) {
	cases := goldenCases()
	if *update {
		got := runGoldens(t, cases)
		if t.Failed() {
			return
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGoldens(t)
	if len(want) != len(cases) {
		t.Errorf("golden file has %d runs, the test defines %d", len(want), len(cases))
	}
	for _, c := range cases {
		if _, ok := want[c.name]; !ok {
			t.Errorf("%s: no golden line", c.name)
		}
		if goldenGroup(c.name) == "" {
			t.Errorf("%s: no test checks this golden run", c.name)
		}
	}
}
