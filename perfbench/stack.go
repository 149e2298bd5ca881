package main

import (
	"fmt"

	"dare"
	"dare/internal/chaos"
	"dare/internal/churn"
	"dare/internal/core"
	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/scheduler"
	"dare/internal/sim"
	"dare/internal/stats"
	"dare/internal/topology"
)

// stack is one simulation wired by the benchmark itself: the same public
// constructors runner.Run's set-up calls, in the same order, with the
// same seed streams. With a tracer attached, every layer boundary is a
// decorator that times the calls crossing it; without one the stack is
// the plain program, and its Output must equal dare.Run's byte for byte.
type stack struct {
	opts     dare.Options
	tr       *tracer
	sel      mapreduce.TaskSelector
	cluster  *mapreduce.Cluster
	tracker  *mapreduce.Tracker
	rec      *event.Recorder
	counter  *event.Counter
	mgr      *core.Manager
	blockPop [][]int
	cvBefore float64
}

// buildStack wires opts into a stack paused before its first event. It
// covers the option subset the benchmark's workloads use and refuses the
// rest, so a digest match always means the same wiring ran.
func buildStack(opts dare.Options, tr *tracer) (*stack, error) {
	if opts.Profile == nil || opts.Workload == nil {
		return nil, fmt.Errorf("perfbench: Profile and Workload are required")
	}
	if opts.PolicySet != nil || len(opts.Failures) > 0 || len(opts.Recoveries) > 0 ||
		len(opts.RackFailures) > 0 || len(opts.MasterOutages) > 0 || opts.DisableRepair ||
		opts.MaxTaskAttempts != 0 || opts.BlacklistAfter != 0 || opts.TaskFailureProb > 0 ||
		opts.Policy.Kind == core.ScarlettPolicy {
		return nil, fmt.Errorf("perfbench: the harness wiring does not cover these options")
	}
	defer tr.enter(spanSetup).exit()

	s := &stack{opts: opts, tr: tr}
	sel, ok := scheduler.FromName(opts.Scheduler, opts.FairSkips)
	if !ok {
		return nil, fmt.Errorf("runner: unknown scheduler %q", opts.Scheduler)
	}
	s.sel = tr.wrapSelector(sel)

	f := tr.enter(spanNewCluster)
	cluster, err := mapreduce.NewCluster(opts.Profile, opts.Seed)
	f.exit()
	if err != nil {
		return nil, err
	}
	s.cluster = cluster
	if opts.EventLog != nil {
		s.rec = event.NewRecorder(opts.EventLog)
		cluster.Bus.Subscribe(tr.wrapSub(s.rec, callRecord))
	}
	s.counter = &event.Counter{}
	cluster.Bus.Subscribe(tr.wrapSub(s.counter, callCounter))

	f = tr.enter(spanNewTracker)
	tracker, err := mapreduce.NewTracker(cluster, opts.Workload, s.sel)
	f.exit()
	if err != nil {
		return nil, err
	}
	s.tracker = tracker
	if opts.Churn != nil {
		if err := s.wireChurn(); err != nil {
			return nil, err
		}
	}
	if opts.Chaos != nil && opts.Chaos.MasterWeight > 0 {
		tracker.EnableMasterRecovery(opts.MasterCheckpointEvery)
	}
	if opts.Chaos != nil {
		if err := s.wireChaos(); err != nil {
			return nil, err
		}
	}
	if opts.CheckInvariants {
		tracker.SetInvariantChecks(true)
	}

	if opts.Policy.Kind != core.NonePolicy {
		pcfg := opts.Policy
		if pcfg.AnnounceDelay == 0 {
			pcfg.AnnounceDelay = opts.Profile.HeartbeatInterval
		}
		if pcfg.LazyDeleteDelay == 0 {
			pcfg.LazyDeleteDelay = opts.Profile.HeartbeatInterval
		}
		f = tr.enter(spanNewManager)
		mgr := core.NewManager(pcfg, cluster.NN, stats.NewRNG(opts.Seed).Split(0xDA2E), cluster.Eng.Defer)
		f.exit()
		mgr.SetNow(cluster.Eng.Now)
		mgr.SetTagDefer(func(delay float64, tag core.EventTag, fn func()) {
			cluster.Eng.DeferTag(delay, tag, fn)
		})
		s.mgr = mgr
		if tr != nil {
			cluster.Bus.Subscribe(&coreProbe{inner: mgr, tr: tr})
		} else {
			cluster.Bus.Subscribe(mgr)
		}
	}

	s.blockPop = opts.Workload.BlockAccessCounts()
	f = tr.enter(spanPlacementCV)
	s.cvBefore = metrics.PlacementCV(cluster.NN, tracker.Files(), s.blockPop)
	f.exit()
	return s, nil
}

// wireChurn mirrors the runner's churn wiring: the schedule comes from
// its own seed stream, horizon defaulting to the last arrival.
func (s *stack) wireChurn() error {
	opts := s.opts
	spec := churn.Spec{
		MTTF:         opts.Churn.MTTF,
		MTTR:         opts.Churn.MTTR,
		RackFailProb: opts.Churn.RackFailProb,
		Horizon:      opts.Churn.Horizon,
	}
	if spec.Horizon <= 0 && len(opts.Workload.Jobs) > 0 {
		spec.Horizon = opts.Workload.Jobs[len(opts.Workload.Jobs)-1].Arrival
	}
	topo := s.cluster.Topo
	events, err := churn.Generate(opts.Profile.Slaves,
		func(n int) int { return topo.Rack(topology.NodeID(n)) },
		spec, stats.NewRNG(opts.Seed).Split(0xC4021))
	if err != nil {
		return err
	}
	for _, ev := range events {
		switch ev.Kind {
		case churn.NodeFail:
			s.tracker.ScheduleNodeFailure(topology.NodeID(ev.Node), ev.At)
		case churn.NodeRecover:
			s.tracker.ScheduleNodeRecovery(topology.NodeID(ev.Node), ev.At)
		case churn.RackFail:
			s.tracker.ScheduleRackFailure(ev.Rack, ev.At)
		}
	}
	return nil
}

// wireChaos mirrors the runner's chaos wiring. The spec must already be
// resolved (every field set, as the faults-durable workload builds it): the
// runner's zero-field defaulting is internal to it.
func (s *stack) wireChaos() error {
	cs := *s.opts.Chaos
	if cs.Events <= 0 || cs.Horizon <= 0 || cs.MTTR <= 0 || cs.SlowMean <= 0 ||
		cs.SlowFactorMax <= 0 || cs.FlapDown <= 0 || cs.CrashWeight <= 0 || cs.SlowWeight <= 0 ||
		cs.CorruptWeight <= 0 || cs.FlapWeight <= 0 || (cs.MasterWeight > 0 && cs.MasterDown <= 0) {
		return fmt.Errorf("perfbench: chaos spec must be fully resolved")
	}
	masterMode, err := dfs.RecoveryModeFromString(cs.MasterRecovery)
	if err != nil {
		return err
	}
	actions, err := chaos.Generate(s.opts.Profile.Slaves, chaos.Spec{
		Events:        cs.Events,
		Horizon:       cs.Horizon,
		CrashWeight:   cs.CrashWeight,
		SlowWeight:    cs.SlowWeight,
		CorruptWeight: cs.CorruptWeight,
		FlapWeight:    cs.FlapWeight,
		MTTR:          cs.MTTR,
		SlowMean:      cs.SlowMean,
		SlowFactorMax: cs.SlowFactorMax,
		FlapDown:      cs.FlapDown,
		MasterWeight:  cs.MasterWeight,
		MasterDown:    cs.MasterDown,
	}, stats.NewRNG(s.opts.Seed).Split(0xCA05))
	if err != nil {
		return err
	}
	hb := s.opts.Profile.HeartbeatInterval
	hedge := cs.HedgeTimeout
	if hedge == 0 {
		hedge = 3 * hb
	}
	t := s.tracker
	t.EnableGrayReads(hedge, hb/2, 4*hb, stats.NewRNG(s.opts.Seed).Split(0x6A47))
	for _, a := range actions {
		switch a.Kind {
		case chaos.Crash:
			t.ScheduleNodeFailure(topology.NodeID(a.Node), a.At)
		case chaos.Recover:
			t.ScheduleNodeRecovery(topology.NodeID(a.Node), a.At)
		case chaos.Slow:
			t.ScheduleNodeDegrade(topology.NodeID(a.Node), a.Factor, a.Disk, a.At)
		case chaos.Restore:
			t.ScheduleNodeRestore(topology.NodeID(a.Node), a.At)
		case chaos.Corrupt:
			t.ScheduleRandomCorruption(a.At)
		case chaos.Flap:
			t.ScheduleNodeFlap(topology.NodeID(a.Node), a.At, a.Down)
		case chaos.MasterCrash:
			t.ScheduleMasterOutage(a.At, a.Down, masterMode)
		}
	}
	return nil
}

// run drives the stack to completion and assembles its Output the way
// the runner's finish step does, error texts included.
func (s *stack) run() (*dare.Output, error) {
	var drive func(*sim.Engine, float64) error
	if s.tr != nil {
		drive = s.tr.drive
	}
	f := s.tr.enter(spanRun)
	results, err := s.tracker.RunWith(drive)
	f.exit()
	if err != nil {
		return nil, err
	}
	defer s.tr.enter(spanFinish).exit()
	evCounts := s.counter.Counts()
	if s.rec != nil {
		if err := s.rec.Flush(); err != nil {
			return nil, fmt.Errorf("runner: writing event log: %w", err)
		}
	}
	cluster, tracker := s.cluster, s.tracker
	f = s.tr.enter(spanPlacementCV)
	cvAfter := metrics.PlacementCV(cluster.NN, tracker.Files(), s.blockPop)
	f.exit()
	f = s.tr.enter(spanCheck)
	err = cluster.NN.CheckInvariants()
	f.exit()
	if err != nil {
		return nil, fmt.Errorf("runner: post-run DFS state corrupt: %w", err)
	}
	var polStats core.PolicyStats
	polName := core.NonePolicy.String()
	if s.mgr != nil {
		polStats = s.mgr.TotalStats()
		polName = s.opts.Policy.Kind.String()
		if errs := s.mgr.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("runner: DARE manager errors (%d), first: %w", len(errs), errs[0])
		}
	}
	return &dare.Output{
		Summary:             metrics.Summarize(results, polStats),
		Results:             results,
		CVBefore:            s.cvBefore,
		CVAfter:             cvAfter,
		PolicyStats:         polStats,
		SpeculativeLaunches: tracker.SpeculativeLaunches(),
		FailureEvents:       tracker.FailureEvents(),
		RecoveryEvents:      tracker.RecoveryEvents(),
		RepairsDone:         tracker.RepairsDone(),
		Gray:                tracker.Gray(),
		Master:              tracker.MasterStats(),
		MasterEvents:        tracker.MasterEvents(),
		SchedulerName:       s.sel.Name(),
		PolicyName:          polName,
		EventsProcessed:     cluster.Eng.Processed(),
		EventCounts:         evCounts,
	}, nil
}
