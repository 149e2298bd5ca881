// Package dare is a faithful, simulation-backed reproduction of
//
//	Cristina L. Abad, Yi Lu, Roy H. Campbell.
//	"DARE: Adaptive Data Replication for Efficient Cluster Scheduling."
//	IEEE International Conference on Cluster Computing (CLUSTER), 2011.
//
// DARE is a distributed, adaptive data-replication mechanism for
// MapReduce/HDFS clusters: each data node independently turns the remote
// block fetches that non-local map tasks already perform into new
// "dynamic" replicas — at zero extra network cost — and evicts them under
// a storage budget using either a greedy LRU policy (paper Algorithm 1) or
// the probabilistic ElephantTrap policy with competitive aging (paper
// Algorithm 2). The extra replicas of popular blocks give any
// locality-aware scheduler more placement choices, raising map-task data
// locality and cutting turnaround time and slowdown.
//
// This package is the public facade over the full reproduction stack:
//
//   - a deterministic discrete-event cluster simulator with an HDFS-like
//     file system (name node, blocks, rack-aware placement) and a
//     MapReduce execution model (job tracker, heartbeats, map/reduce
//     slots, calibrated local/remote read costs);
//   - the FIFO and Fair-with-delay-scheduling schedulers the paper
//     evaluates under;
//   - the DARE policies themselves;
//   - SWIM-style synthetic Facebook workloads (wl1, wl2) and a synthetic
//     Yahoo!-shaped audit log with the paper's §III analyses;
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation (see EXPERIMENTS.md for the index).
//
// Quick start:
//
//	out, err := dare.Run(dare.Options{
//	    Profile:   dare.CCT(),
//	    Workload:  dare.WL1(42),
//	    Scheduler: "fifo",
//	    Policy:    dare.DefaultPolicy(),
//	    Seed:      42,
//	})
//	if err != nil { ... }
//	fmt.Printf("locality %.2f, GMTT %.1fs\n", out.Summary.JobLocality, out.Summary.GMTT)
package dare

import (
	"io"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/metrics"
	"dare/internal/netprobe"
	"dare/internal/policy"
	"dare/internal/runner"
	"dare/internal/stats"
	"dare/internal/trace"
	"dare/internal/workload"
)

// ---------------------------------------------------------------------------
// Cluster profiles (Table III)

// Profile describes one test cluster: Table III's descriptive rows plus
// the performance models calibrated from Tables I-II.
type Profile = config.Profile

// CCT returns the dedicated 20-node cluster profile of Table III.
func CCT() *Profile { return config.CCT() }

// EC2 returns the virtualized 100-node EC2 profile of Table III.
func EC2() *Profile { return config.EC2() }

// EC2Small returns the 20-node EC2 variant used for the §II-B probes.
func EC2Small() *Profile { return config.EC2Small() }

// TableIII renders the cluster-configuration table.
func TableIII(profiles ...*Profile) string { return config.TableIII(profiles...) }

// ProfileSpec is a JSON-serializable cluster description; LoadProfile
// decodes one and builds a validated Profile, so experiments on clusters
// the paper never measured need only a config file.
type ProfileSpec = config.ProfileSpec

// LoadProfile decodes a JSON ProfileSpec from r.
func LoadProfile(r io.Reader) (*Profile, error) { return config.LoadProfile(r) }

// ---------------------------------------------------------------------------
// DARE policies (§IV)

// PolicyKind selects a replication policy.
type PolicyKind = core.PolicyKind

// Policy kinds: vanilla Hadoop (no dynamic replication), greedy LRU
// (Algorithm 1), probabilistic ElephantTrap (Algorithm 2), and the
// epoch-based Scarlett baseline (§VI) for adaptation comparisons.
const (
	Vanilla      = core.NonePolicy
	GreedyLRU    = core.GreedyLRUPolicy
	GreedyLFU    = core.GreedyLFUPolicy
	ElephantTrap = core.ElephantTrapPolicy
	Scarlett     = core.ScarlettPolicy
)

// PolicyConfig parameterizes DARE (sampling probability p, aging
// threshold, replication budget, heartbeat-coupled delays).
type PolicyConfig = core.Config

// DefaultPolicy returns the paper's headline configuration: ElephantTrap
// with p = 0.3, threshold = 1, budget = 0.2 (Fig. 7).
func DefaultPolicy() PolicyConfig { return core.DefaultConfig() }

// PolicyFor returns the evaluated configuration for a policy kind.
func PolicyFor(kind PolicyKind) PolicyConfig { return runner.PolicyFor(kind) }

// ParsePolicyKind converts a CLI spelling ("vanilla", "lru",
// "elephanttrap") into a PolicyKind.
func ParsePolicyKind(s string) (PolicyKind, error) { return core.ParsePolicyKind(s) }

// PolicyNameList renders the accepted policy spellings ("vanilla|lru|...")
// from the shared name registry, for CLI usage strings.
func PolicyNameList() string { return policy.PolicyNameList() }

// RenderPolicyNames renders the policy-name registry as a markdown table
// (canonical name, aliases, behavior) — the source of README's table.
func RenderPolicyNames() string { return policy.RenderPolicyNameTable() }

// ---------------------------------------------------------------------------
// Policy config files (-policy-file)

// PolicySpec is the JSON form of a policy configuration: a policy kind
// with scalar knobs plus optional declarative rule overrides for
// replication admission/eviction, repair-target ranking, speculation,
// blacklisting, and the job-fail gate. PolicySet is the built, validated
// form that plugs into Options.PolicySet. RuleSpec is one node of a rule
// tree; RuleTable/RunRuleTable give rule specs an `opa test`-style table
// harness.
type (
	PolicySpec = config.PolicySpec
	PolicySet  = config.PolicySet
	RuleSpec   = policy.RuleSpec
	RuleTable  = policy.Table
)

// LoadPolicy reads and validates a policy config file (-policy-file).
func LoadPolicy(path string) (*PolicySet, error) { return config.LoadPolicy(path) }

// ReadPolicy decodes and validates a policy config from r.
func ReadPolicy(r io.Reader) (*PolicySet, error) { return config.ReadPolicy(r) }

// BuiltinPolicy builds the named built-in arm — the config-file arm whose
// run is byte-identical to the equivalent -policy flag run.
func BuiltinPolicy(name string) (*PolicySet, error) { return config.BuiltinPolicy(name) }

// RunRuleTable evaluates one declarative rule table (rows in order, so
// stateful rules see a sequence).
func RunRuleTable(tb *RuleTable) *policy.TableResult { return policy.RunTable(tb) }

// PolicyArmRow carries one arm of a policy-file sweep.
type PolicyArmRow = runner.PolicyArmRow

// PolicySweep runs every built-in policy arm plus any extra config-file
// arms (e.g. the ε-greedy bandit in configs/bandit.json) on the standard
// CCT/wl1/FIFO bench.
func PolicySweep(jobs int, seed uint64, extra []*PolicySet) ([]PolicyArmRow, error) {
	return runner.PolicySweep(jobs, seed, extra)
}

// ---------------------------------------------------------------------------
// Workloads (§V-A)

// Workload is a synthetic SWIM-style job trace over a file population.
type Workload = workload.Workload

// WorkloadConfig parameterizes trace synthesis.
type WorkloadConfig = workload.GenConfig

// WL1 builds the paper's first workload: a long sequence of small jobs.
func WL1(seed uint64) *Workload { return workload.WL1(seed) }

// WL2 builds the paper's second workload: small jobs after large jobs.
func WL2(seed uint64) *Workload { return workload.WL2(seed) }

// GenerateWorkload synthesizes a custom trace.
func GenerateWorkload(cfg WorkloadConfig) *Workload { return workload.Generate(cfg) }

// Fig6Points samples the access-pattern CDF used in the experiments.
func Fig6Points(nFiles int, zipfS float64) []stats.CDFPoint {
	return workload.Fig6Points(nFiles, zipfS)
}

// ---------------------------------------------------------------------------
// Simulation (one run)

// Options configures one simulation run; Output carries its metrics.
// NodeFailure schedules failure injection within a run.
type (
	Options     = runner.Options
	Output      = runner.Output
	NodeFailure = runner.NodeFailure
)

// ErrNegativeFairSkips rejects Options.FairSkips < 0, directly or from a
// resumed checkpoint; 0 means the default patience.
var ErrNegativeFairSkips = runner.ErrNegativeFairSkips

// Run executes one full cluster simulation: it builds the cluster from the
// profile, loads the workload's files into the DFS, replays the job trace
// under the chosen scheduler with DARE attached (unless Policy.Kind is
// Vanilla), and returns the evaluation metrics. Deterministic in
// (Options, Seed).
func Run(opts Options) (*Output, error) { return runner.Run(opts) }

// RunAll executes every Options on a bounded worker pool (see
// SetParallelism) and returns the outputs in input order. Each simulated
// world remains single-threaded and deterministic; only whole runs fan
// out, so outs[i] is byte-identical to what a serial Run(opts[i]) returns.
func RunAll(opts []Options) ([]*Output, error) { return runner.RunAll(opts) }

// SetParallelism bounds how many simulations may run concurrently in
// RunAll and the experiment drivers. n <= 0 restores the default
// (GOMAXPROCS).
func SetParallelism(n int) { runner.SetParallelism(n) }

// Parallelism reports the current concurrent-simulation bound.
func Parallelism() int { return runner.Parallelism() }

// TotalEventsProcessed reports the cumulative simulation events processed
// by all completed runs in this process — the throughput numerator for
// benchmarking (events/sec).
func TotalEventsProcessed() uint64 { return runner.TotalEventsProcessed() }

// ---------------------------------------------------------------------------
// Durable runs (checkpoint/restore, crash-resume, service mode)

// CheckpointSpec arms periodic checkpointing of a run (see DESIGN.md §4j):
// Path names the snapshot file (atomically rotated with a .prev
// generation), Every is the checkpoint cadence in processed engine events,
// Interrupt requests a final checkpoint + clean stop when raised (the
// SIGINT path), and AfterCheckpoint observes each durable write.
// DivergenceError is the typed rejection when a resumed replay does not
// reproduce the checkpointed state; ErrInterrupted reports a run stopped
// by Interrupt after flushing its final checkpoint; ErrNotSnapshottable
// marks Options that cannot be transcribed into a checkpoint spec.
type (
	CheckpointSpec  = runner.CheckpointSpec
	DivergenceError = runner.DivergenceError
)

var (
	ErrInterrupted      = runner.ErrInterrupted
	ErrNotSnapshottable = runner.ErrNotSnapshottable
)

// RunCheckpointed is Run with durable checkpoints: the complete run state
// is snapshotted every spec.Every events, so a process killed at any
// checkpoint boundary can Resume and finish with byte-identical Output
// and event trace. Checkpoint writes are pure observation — an armed
// run's results are byte-identical to an unarmed Run.
func RunCheckpointed(opts Options, ck CheckpointSpec) (*Output, error) {
	return runner.RunCheckpointed(opts, ck)
}

// Resume continues a batch run from the checkpoint at path (falling back
// to the previous generation if the primary is torn or corrupt). eventLog
// must be a fresh sink when the original run had one — the replay
// re-emits the full trace from genesis, byte-identically.
func Resume(path string, eventLog io.Writer, ck CheckpointSpec) (*Output, error) {
	return runner.Resume(path, eventLog, ck)
}

// ResumeMode selects the restore strategy: ResumeReplay re-executes the
// event history from genesis to the cut (O(history)); ResumeState decodes
// the checkpoint's direct state image (O(state)), falling back to replay
// when the checkpoint carries no image. ResumeInfo describes a checkpoint
// so a caller can prepare sinks before choosing (see InspectCheckpoint).
type (
	ResumeMode = runner.ResumeMode
	ResumeInfo = runner.ResumeInfo
)

const (
	ResumeReplay = runner.ResumeReplay
	ResumeState  = runner.ResumeState
)

// ParseResumeMode maps a CLI flag value to a ResumeMode ("" means the
// default, ResumeState).
func ParseResumeMode(s string) (ResumeMode, error) { return runner.ParseResumeMode(s) }

// InspectCheckpoint loads the checkpoint at path and describes how it can
// be resumed: batch or stream, state-resumable or replay-only, and the
// output-stream byte positions at the cut.
func InspectCheckpoint(path string) (*ResumeInfo, error) { return runner.InspectCheckpoint(path) }

// ResumeWithMode is Resume with an explicit restore strategy. In state
// mode eventLog receives only the post-cut suffix of the trace (append it
// to the original log truncated to the cut position — InspectCheckpoint
// reports it); in replay mode the full trace is re-emitted from genesis.
func ResumeWithMode(path string, eventLog io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	return runner.ResumeWithMode(path, eventLog, ck, mode)
}

// StreamRunSpec configures service mode (`dare-sim -stream`): open-ended
// window-by-window job synthesis with optional diurnal load modulation;
// StreamReportLine is one JSONL record of its per-window metrics stream.
type (
	StreamRunSpec    = runner.StreamRunSpec
	StreamReportLine = runner.StreamReportLine
)

// RunStream executes a service-mode run; ResumeStream continues one from
// its checkpoint (see runner.RunStream / runner.ResumeStream).
func RunStream(opts Options, scfg StreamRunSpec, report io.Writer, ck CheckpointSpec) (*Output, error) {
	return runner.RunStream(opts, scfg, report, ck)
}

// ResumeStream continues a service-mode run from the checkpoint at path.
func ResumeStream(path string, eventLog, report io.Writer, ck CheckpointSpec) (*Output, error) {
	return runner.ResumeStream(path, eventLog, report, ck)
}

// ResumeStreamWithMode is ResumeStream with an explicit restore strategy;
// in state mode eventLog and report receive only the post-cut suffix of
// each stream.
func ResumeStreamWithMode(path string, eventLog, report io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	return runner.ResumeStreamWithMode(path, eventLog, report, ck, mode)
}

// EventCounts tallies cluster bus events per kind; Output.EventCounts
// reports one run's tallies and TotalBusEvents the process-wide ones. Set
// Options.EventLog to also capture the full JSONL trace (see ReadEventLog).
type EventCounts = event.Counts

// ClusterEvent is one typed cluster event as decoded from a JSONL trace.
type ClusterEvent = event.Event

// TotalBusEvents reports the cumulative per-kind cluster bus event counts
// across all completed runs in this process.
func TotalBusEvents() EventCounts { return runner.TotalBusEvents() }

// ReadEventLog decodes a JSONL trace written via Options.EventLog. Lines
// whose kind this build does not know (a trace from a newer build) are
// skipped; use ReadEventLogSkipped to count them.
func ReadEventLog(r io.Reader) ([]ClusterEvent, error) { return event.ReadLog(r) }

// ReadEventLogSkipped is ReadEventLog, additionally reporting how many
// unknown-kind lines were skipped.
func ReadEventLogSkipped(r io.Reader) ([]ClusterEvent, int, error) { return event.ReadLogSkipped(r) }

// TraceStats summarizes a decoded event log (per-kind volume, sim-time
// span, map-launch locality split, replica churn).
type TraceStats = event.TraceStats

// SummarizeEvents tallies a decoded event log into TraceStats.
func SummarizeEvents(events []ClusterEvent) TraceStats { return event.Summarize(events) }

// JobResult is one job's outcome within Output.Results.
type JobResult = mapreduce.Result

// LocalityTimeline buckets per-job locality into n consecutive groups of
// the job stream, exposing DARE's convergence and adaptation dynamics.
func LocalityTimeline(results []JobResult, n int) []float64 {
	return metrics.LocalityTimeline(results, n)
}

// ---------------------------------------------------------------------------
// Experiment drivers (one per table/figure; see EXPERIMENTS.md)

// Row types of the experiment drivers.
type (
	PerfRow    = runner.PerfRow
	SensRow    = runner.SensRow
	Fig11Row   = runner.Fig11Row
	WritesRow  = runner.WritesRow
	MapTimeRow = runner.MapTimeRow
)

// Fig7 regenerates the dedicated-cluster grid (Fig. 7a/b/c). jobs <= 0
// runs the paper's full 500 jobs.
func Fig7(jobs int, seed uint64) ([]PerfRow, error) { return runner.Fig7(jobs, seed) }

// Fig8P regenerates the sampling-probability sweep (Fig. 8a).
func Fig8P(jobs int, seed uint64) ([]SensRow, error) { return runner.Fig8P(jobs, seed) }

// Fig8Threshold regenerates the aging-threshold sweep (Fig. 8b).
func Fig8Threshold(jobs int, seed uint64) ([]SensRow, error) { return runner.Fig8Threshold(jobs, seed) }

// Fig9LRU regenerates the budget sweep with greedy LRU eviction (Fig. 9a).
func Fig9LRU(jobs int, seed uint64) ([]SensRow, error) { return runner.Fig9LRU(jobs, seed) }

// Fig9ET regenerates the budget sweep with ElephantTrap eviction (Fig. 9b).
func Fig9ET(jobs int, seed uint64) ([]SensRow, error) { return runner.Fig9ET(jobs, seed) }

// Fig10 regenerates the virtualized-cloud grid (Fig. 10a/b/c).
func Fig10(jobs int, seed uint64) ([]PerfRow, error) { return runner.Fig10(jobs, seed) }

// Fig11 regenerates the placement-uniformity experiment (Fig. 11).
func Fig11(jobs int, seed uint64) ([]Fig11Row, error) { return runner.Fig11(jobs, seed) }

// AblationWrites compares LRU and ElephantTrap disk writes at comparable
// locality (§I's "50% of the disk writes" claim).
func AblationWrites(jobs int, seed uint64) ([]WritesRow, error) {
	return runner.AblationWrites(jobs, seed)
}

// AblationMapTime measures the §V-C map-completion-time reduction.
func AblationMapTime(jobs int, seed uint64) ([]MapTimeRow, error) {
	return runner.AblationMapTime(jobs, seed)
}

// AdaptationRow carries one policy's locality trajectory through a
// popularity shift.
type AdaptationRow = runner.AdaptationRow

// Adaptation runs the §VI reactive-vs-proactive comparison: a workload
// whose hot file set rotates at the midpoint, under vanilla, DARE, and
// the Scarlett epoch baseline.
func Adaptation(jobs int, seed uint64) ([]AdaptationRow, error) {
	return runner.Adaptation(jobs, seed)
}

// AvailabilityRow carries one policy's data availability after injected
// node failures.
type AvailabilityRow = runner.AvailabilityRow

// SpeculationRow carries one configuration of the speculative-execution
// study.
type SpeculationRow = runner.SpeculationRow

// EvictionRow compares the eviction policies of §IV (LRU, LFU,
// ElephantTrap) at a binding budget.
type EvictionRow = runner.EvictionRow

// EvictionStudy profiles the eviction policies §IV names on both paper
// workloads under a budget tight enough that the choice matters.
func EvictionStudy(jobs int, seed uint64) ([]EvictionRow, error) {
	return runner.EvictionStudy(jobs, seed)
}

// AuditReplayRow carries one policy's performance replaying the
// Yahoo!-shaped audit log.
type AuditReplayRow = runner.AuditReplayRow

// OutputBoundRow splits turnaround gains by input- vs output-bound jobs.
type OutputBoundRow = runner.OutputBoundRow

// OutputBound reproduces §V-C's observation that dynamic replication does
// not expedite output-bound jobs: the output-write pipeline's service-time
// gap survives replication.
func OutputBound(jobs int, seed uint64) ([]OutputBoundRow, error) {
	return runner.OutputBound(jobs, seed)
}

// DelayRow is one point of the delay-scheduling patience sweep.
type DelayRow = runner.DelayRow

// DelaySweep quantifies the §VI complementarity claim: DARE reaches the
// same locality as vanilla delay scheduling at a fraction of the waiting
// patience.
func DelaySweep(jobs int, seed uint64) ([]DelayRow, error) {
	return runner.DelaySweep(jobs, seed)
}

// BalanceRow contrasts byte balance (the HDFS balancer's goal) with
// popularity balance (Fig. 11's).
type BalanceRow = runner.BalanceRow

// BalanceStudy compares untreated, HDFS-balancer, and DARE placements on
// both storage-cv and popularity-cv.
func BalanceStudy(jobs int, seed uint64) ([]BalanceRow, error) {
	return runner.BalanceStudy(jobs, seed)
}

// UniformRow compares uniform replication factors against adaptive
// replication.
type UniformRow = runner.UniformRow

// UniformVsAdaptive quantifies §III's premise: matching DARE's locality
// by raising the uniform replication factor costs several times the
// storage, because uniform copies are mostly spent on cold data.
func UniformVsAdaptive(jobs int, seed uint64) ([]UniformRow, error) {
	return runner.UniformVsAdaptive(jobs, seed)
}

// AuditReplay replays a slice of the synthetic audit log through the
// cluster, connecting the §III access characterization directly to the
// §V evaluation.
func AuditReplay(jobs int, seed uint64) ([]AuditReplayRow, error) {
	return runner.AuditReplay(jobs, seed)
}

// ReplayConfig converts audit logs into workloads (see
// Workload.FromAuditLog's package documentation).
type ReplayConfig = workload.ReplayConfig

// WorkloadFromAuditLog converts an access-log slice into a replayable
// workload.
func WorkloadFromAuditLog(l *AuditLog, cfg ReplayConfig) (*Workload, error) {
	return workload.FromAuditLog(l, cfg)
}

// SpeculationStudy replays wl1 on the noisy EC2 profile with Hadoop-style
// speculative execution off and on, under vanilla and DARE.
func SpeculationStudy(jobs int, seed uint64) ([]SpeculationRow, error) {
	return runner.SpeculationStudy(jobs, seed)
}

// Availability measures the §IV-B claim that DARE's dynamic replicas are
// first-order replicas contributing to availability: it kills failNodes
// nodes mid-run (repairs disabled) and reports the fraction of blocks —
// and of access-weighted data — still readable.
func Availability(jobs, failNodes int, seed uint64) ([]AvailabilityRow, error) {
	return runner.Availability(jobs, failNodes, seed)
}

// ---------------------------------------------------------------------------
// Churn (§IV-B robustness: failures, recoveries, repair)

// Failure-injection scheduling for individual runs: NodeRecovery rejoins a
// failed node (HDFS-style empty re-registration), RackFailure kills every
// live node behind one rack switch, ChurnSpec drives the seeded stochastic
// failure/recovery generator, and RecoveryEvent records a rejoin.
type (
	NodeRecovery  = runner.NodeRecovery
	RackFailure   = runner.RackFailure
	ChurnSpec     = runner.ChurnSpec
	RecoveryEvent = mapreduce.RecoveryEvent
)

// ChurnRow carries one scheduler×policy arm of the churn study.
type ChurnRow = runner.ChurnRow

// DefaultChurnSpec scales a stochastic churn schedule to an arrival span
// and cluster size (see runner.DefaultChurnSpec).
func DefaultChurnSpec(span float64, nodes int) ChurnSpec {
	return runner.DefaultChurnSpec(span, nodes)
}

// ChurnStudy replays wl1 under a seeded stochastic failure/recovery
// schedule for both schedulers × {vanilla, DARE-LRU, ElephantTrap} and
// reports weighted availability, repair backlog, and job slowdown — the
// §IV-B availability claim under sustained churn rather than a one-shot
// kill. Non-positive spec fields fall back to DefaultChurnSpec; check
// enables the metadata invariant checker after every churn event.
func ChurnStudy(jobs int, seed uint64, spec ChurnSpec, check bool) ([]ChurnRow, error) {
	return runner.ChurnStudy(jobs, seed, spec, check)
}

// ---------------------------------------------------------------------------
// Gray failures & chaos (slow nodes, corruption, hedged reads, flaps)

// ChaosSpec configures the seeded gray-failure scenario generator (mixed
// crashes, degradations, silent corruption, false-dead flaps); GrayStats
// tallies the gray machinery's activity in Output.Gray; ChaosRow carries
// one arm of the chaos study.
type (
	ChaosSpec = runner.ChaosSpec
	GrayStats = mapreduce.GrayStats
	ChaosRow  = runner.ChaosRow
)

// DefaultChaosSpec scales a chaos scenario to an arrival span (see
// runner.DefaultChaosSpec).
func DefaultChaosSpec(span float64) ChaosSpec { return runner.DefaultChaosSpec(span) }

// ChaosStudy replays wl1 under one seeded gray-failure scenario for both
// schedulers × {vanilla, DARE-LRU, ElephantTrap}: every arm faces the
// identical injection schedule, so turnaround/locality/availability
// differences are attributable to the replication policy. check enables
// the cross-layer invariant checker after every injected event.
func ChaosStudy(jobs int, seed uint64, spec ChaosSpec, check bool) ([]ChaosRow, error) {
	return runner.ChaosStudy(jobs, seed, spec, check)
}

// ---------------------------------------------------------------------------
// Control-plane failover (master crash, journaled metadata, block reports)

// MasterOutage schedules one master crash/recover pair within a run;
// MasterStats tallies the outage machinery in Output.Master; MasterEvent
// is one control-plane availability sample in Output.MasterEvents;
// FailoverRow carries one arm of the failover study.
type (
	MasterOutage = runner.MasterOutage
	MasterStats  = mapreduce.MasterStats
	MasterEvent  = mapreduce.MasterEvent
	FailoverRow  = runner.FailoverRow
)

// FailoverStudy replays wl1 under two identically-scheduled master
// outages for fifo × {vanilla, ElephantTrap} × {journal, report}: the
// journal arms recover by checkpoint + edit-log replay (instant full
// view), the report arms from a cold registry progressively warmed by
// per-node block reports. Rows report recovery time, deferred work,
// killed attempts, and time-averaged access-weighted master availability.
// check enables the invariant checker after every recovery.
func FailoverStudy(jobs int, seed uint64, check bool) ([]FailoverRow, error) {
	return runner.FailoverStudy(jobs, seed, check)
}

// EventRow carries one arm of the event-volume study.
type EventRow = runner.EventRow

// EventStudy measures per-kind cluster bus event volume for the evaluated
// policies with and without churn — the traffic a -events trace captures.
func EventStudy(jobs int, seed uint64) ([]EventRow, error) {
	return runner.EventStudy(jobs, seed)
}

// ScaleRow carries one cluster size of the scale benchmark (coalesced
// cohort heartbeats on 1k–20k-node clusters).
type ScaleRow = runner.ScaleRow

// ScaleStudy benchmarks the simulation across cluster sizes {1k, 4k, 10k,
// 20k}, reporting CPU time, engine/bus event throughput, and allocations
// per bus event.
func ScaleStudy(jobs int, seed uint64) ([]ScaleRow, error) {
	return runner.ScaleStudy(jobs, seed)
}

// ScaleProfile builds the n-node dedicated benchmark cluster the scale
// study runs on (CCT performance models, 40-node racks).
func ScaleProfile(nodes int) *Profile { return runner.ScaleProfile(nodes) }

// CheckpointRow carries one arm of the checkpoint-overhead study (A19).
type CheckpointRow = runner.CheckpointRow

// CheckpointStudy measures what durable checkpoints cost: run overhead at
// two cadences plus the wall-clock price of crash-recovery by replay,
// every arm verified byte-identical to the unarmed baseline.
func CheckpointStudy(jobs int, seed uint64) ([]CheckpointRow, error) {
	return runner.CheckpointStudy(jobs, seed)
}

// ResumeLadderRow carries one rung of the A19 resume-scaling ladder.
type ResumeLadderRow = runner.ResumeLadderRow

// ResumeLadder measures crash-recovery latency vs run length: runs of
// growing length killed at 25/50/75% of their checkpoints and resumed in
// both modes with the interrupt pre-raised, isolating O(history) replay
// against O(state) direct restore.
func ResumeLadder(seed uint64) ([]ResumeLadderRow, error) {
	return runner.ResumeLadder(seed)
}

// Renderers format experiment rows the way the paper's figures group them.
var (
	RenderPerf         = runner.RenderPerf
	RenderSens         = runner.RenderSens
	RenderFig11        = runner.RenderFig11
	RenderWrites       = runner.RenderWrites
	RenderMapTime      = runner.RenderMapTime
	RenderAdaptation   = runner.RenderAdaptation
	RenderAvailability = runner.RenderAvailability
	RenderSpeculation  = runner.RenderSpeculation
	RenderEviction     = runner.RenderEviction
	RenderAuditReplay  = runner.RenderAuditReplay
	RenderOutputBound  = runner.RenderOutputBound
	RenderDelaySweep   = runner.RenderDelaySweep
	RenderBalance      = runner.RenderBalance
	RenderUniform      = runner.RenderUniform
	RenderEvents       = runner.RenderEvents
	RenderScale        = runner.RenderScale
	RenderTraceStats   = event.RenderTraceStats
	RenderCheckpoint   = runner.RenderCheckpoint
	RenderResumeLadder = runner.RenderResumeLadder
	RenderChurn        = runner.RenderChurn
	RenderChaos        = runner.RenderChaos
	RenderFailover     = runner.RenderFailover
	RenderPolicySweep  = runner.RenderPolicySweep
)

// ---------------------------------------------------------------------------
// Environment characterization (§II-B: Tables I-II, Fig. 1)

// TableI runs the all-to-all ping campaign and renders Table I.
func TableI(rounds int, seed uint64, profiles ...*Profile) string {
	return netprobe.TableI(rounds, seed, profiles...)
}

// TableII runs the bandwidth campaign and renders Table II.
func TableII(samples int, seed uint64, profiles ...*Profile) string {
	return netprobe.TableII(samples, seed, profiles...)
}

// Fig1 renders the hop-count distribution of a cluster built from p.
func Fig1(p *Profile, seed uint64) string { return netprobe.Fig1(p, seed) }

// BandwidthRatio reports mean network/disk bandwidth — §II-B's insight
// metric (lower means locality pays off more).
func BandwidthRatio(p *Profile, samples int, seed uint64) float64 {
	return netprobe.BandwidthRatio(p, samples, seed)
}

// ---------------------------------------------------------------------------
// Access-pattern characterization (§III: Figs. 2-5)

// AuditLog is a (synthetic or imported) file-access trace.
type AuditLog = trace.Log

// AuditLogConfig parameterizes the synthetic Yahoo!-shaped generator.
type AuditLogConfig = trace.GenConfig

// GenerateAuditLog synthesizes one week of Yahoo!-shaped audit log.
func GenerateAuditLog(cfg AuditLogConfig) *AuditLog { return trace.Generate(cfg) }

// ReadAuditLog parses an audit log written by AuditLog.WriteCSV — the
// shape real HDFS audit data should be converted into for analysis.
func ReadAuditLog(in io.Reader) (*AuditLog, error) { return trace.ReadCSV(in) }

// ReadWorkload parses a workload written by Workload.WriteCSV.
func ReadWorkload(in io.Reader) (*Workload, error) { return workload.ReadCSV(in) }

// Fig2Ranks computes the popularity-vs-rank series of Fig. 2.
func Fig2Ranks(l *AuditLog) []trace.RankPoint { return trace.PopularityRanks(l) }

// Fig3AgeCDF computes the age-at-access CDF of Fig. 3.
func Fig3AgeCDF(l *AuditLog) *stats.ECDF { return trace.AgeCDF(l) }

// Fig4Windows computes the weekly burst-window distribution of Fig. 4.
func Fig4Windows(l *AuditLog) (trace.WindowResult, error) {
	return trace.BurstWindows(l, trace.DefaultWindowConfig(l))
}

// Fig5Windows computes the day-2 burst-window distribution of Fig. 5.
func Fig5Windows(l *AuditLog) (trace.WindowResult, error) {
	return trace.BurstWindows(l, trace.Day2WindowConfig())
}

// HourlyProfile computes the diurnal access profile of a log (the daily
// periodicity behind Fig. 4).
func HourlyProfile(l *AuditLog) [24]float64 { return trace.HourlyProfile(l) }

// Trace renderers.
var (
	RenderRanks         = trace.RenderRanks
	RenderAgeCDF        = trace.RenderAgeCDF
	RenderWindows       = trace.RenderWindows
	RenderHourlyProfile = trace.RenderHourlyProfile
)
