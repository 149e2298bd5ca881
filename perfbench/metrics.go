package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"syscall"

	"dare/internal/event"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) encode() (string, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// endToEndMetrics are the metrics the untraced result line carries (the
// end_to_end list of BENCHMARK.json). The report also prints fail_ratio,
// sim.job_fail_ratio and sim.locality, which read 0 on some workloads, and
// sim.gmtt_s, which master outages make vary too much between the
// faults-durable simulations for a bound.
var endToEndMetrics = []string{
	"setup_s", "jobs_per_s", "recover_s", "peak_rss_mb", "sim.net_mb_per_job",
}

// aggregate folds simulation outcomes into the run's metrics.
type aggregate struct {
	sims, failed, mismatches int
	errors                   []string

	jobs           int
	cpu            float64
	setup, recover []float64
	gmtt, locality []float64
	netMB, jobFail []float64
	traced         []simOutcome // the traced set, in order
}

func (a *aggregate) add(so simOutcome, traced bool) {
	a.sims++
	a.cpu += so.cpu
	a.setup = append(a.setup, so.setup...)
	a.recover = append(a.recover, so.recover...)
	a.jobs += so.jobs
	if so.err != "" {
		a.failed++
		a.errors = append(a.errors, so.err)
		if so.mismatch {
			a.mismatches++
		}
	} else {
		s := so.out.Summary
		a.gmtt = append(a.gmtt, s.GMTT)
		a.locality = append(a.locality, s.TaskLocality)
		a.netMB = append(a.netMB, float64(s.NetworkBytes)/1e6/float64(s.Jobs))
		a.jobFail = append(a.jobFail, float64(s.FailedJobs)/float64(s.Jobs))
	}
	if traced {
		// Drop the Outputs the per-layer reduction does not read.
		so.out = nil
		a.traced = append(a.traced, so)
	}
}

// endToEnd reduces the run to its user-facing metrics. Host times are
// process CPU seconds; sim.* are medians over the simulations that passed
// (one master outage can stretch a chaos simulation's turnaround a lot).
func (a *aggregate) endToEnd() map[string]metric {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss is in KiB on Linux
	return map[string]metric{
		"setup_s":            {median(a.setup), "s"},
		"jobs_per_s":         {ratio(float64(a.jobs), a.cpu), "1/s"},
		"recover_s":          {median(a.recover), "s"},
		"peak_rss_mb":        {float64(ru.Maxrss) / 1024, "MB"},
		"fail_ratio":         {ratio(float64(a.failed), float64(a.sims)), "ratio"},
		"sim.gmtt_s":         {median(a.gmtt), "s"},
		"sim.locality":       {median(a.locality), "ratio"},
		"sim.net_mb_per_job": {median(a.netMB), "MB"},
		"sim.job_fail_ratio": {median(a.jobFail), "ratio"},
	}
}

// perLayer reduces the traced set to per-layer metrics: times are seconds
// and counts are per traced simulation; ratios are over the whole set.
func (a *aggregate) perLayer(tr *tracer, w *workloadDef) map[string]metric {
	n := float64(len(a.traced))
	perSim := func(v float64) float64 { return v / n }
	secs := func(id spanID) float64 { return perSim(tr.total(id).Seconds()) }
	calls := func(id spanID) float64 { return float64(tr.callCount(id)) }

	var jobs, tracedCPU, untracedCPU float64
	var launches, fails, retries, hedged, repairs, created, evictions float64
	var logBytes, snaps, snapBytes, inspect, allocMB, gcCPU float64
	for _, so := range a.traced {
		jobs += float64(so.jobs)
		tracedCPU += so.tracedCPU
		untracedCPU += so.untracedCPU
		if h := so.harness; h != nil {
			launches += float64(h.EventCounts[event.TaskLaunch])
			fails += float64(h.EventCounts[event.TaskFail])
			retries += float64(h.Gray.ReadRetries)
			hedged += float64(h.Gray.HedgedReads)
			repairs += float64(h.RepairsDone)
			created += float64(h.PolicyStats.ReplicasCreated)
			evictions += float64(h.PolicyStats.Evictions)
		}
		logBytes += float64(so.logBytes)
		snaps += float64(so.snapshots)
		snapBytes += so.snapBytes
		inspect += so.inspect
		allocMB += so.allocMB
		gcCPU += so.gcCPU
	}
	tracedRate, untracedRate := ratio(jobs, tracedCPU), ratio(jobs, untracedCPU)
	setupShare := ratio(tr.total(spanSetup).Seconds(), tr.total(spanSim).Seconds())
	largest, ok := largestLayer(tr, w)
	if !ok {
		fmt.Printf("attribution check failed on %s: largest layer is %s\n", w.name, largest)
	}

	return map[string]metric{
		"mapreduce.new_cluster_s": {secs(spanNewCluster), "s"},
		"mapreduce.new_tracker_s": {secs(spanNewTracker), "s"},
		"core.new_manager_s":      {secs(spanNewManager), "s"},
		"metrics.placement_cv_s":  {secs(spanPlacementCV), "s"},

		"sim.drive_s":     {secs(spanDrive), "s"},
		"sim.self_s":      {perSim(tr.self(spanDrive).Seconds()), "s"},
		"sim.events":      {perSim(float64(tr.events)), "count"},
		"sim.pending_max": {float64(tr.pendingMax), "count"},

		"scheduler.map_calls":        {perSim(calls(callSelectMap)), "count"},
		"scheduler.map_s":            {secs(callSelectMap), "s"},
		"scheduler.map_hit_ratio":    {ratio(float64(tr.hits[callSelectMap]), calls(callSelectMap)), "ratio"},
		"scheduler.map_p50_ns":       {tr.hist[callSelectMap].quantile(0.5), "ns"},
		"scheduler.map_p99_ns":       {tr.hist[callSelectMap].quantile(0.99), "ns"},
		"scheduler.reduce_calls":     {perSim(calls(callSelectReduce)), "count"},
		"scheduler.reduce_s":         {secs(callSelectReduce), "s"},
		"scheduler.reduce_hit_ratio": {ratio(float64(tr.hits[callSelectReduce]), calls(callSelectReduce)), "ratio"},

		"core.events":           {perSim(float64(tr.coreEvents)), "count"},
		"core.handle_s":         {perSim(tr.self(callCoreHandle).Seconds()), "s"},
		"core.replicas_created": {perSim(created), "count"},
		"core.evictions":        {perSim(evictions), "count"},
		"core.capture_ratio":    {ratio(created, float64(tr.nonLocalReads)), "ratio"},
		"core.errors":           {perSim(float64(tr.coreErrors)), "count"},

		"event.bus_events": {perSim(float64(tr.busEvents)), "count"},
		"event.record_s":   {secs(callRecord), "s"},
		"event.counter_s":  {secs(callCounter), "s"},
		"event.log_bytes":  {perSim(logBytes), "bytes"},

		"mapreduce.task_launches":         {perSim(launches), "count"},
		"mapreduce.attempt_success_ratio": {ratio(launches-fails, launches), "ratio"},
		"mapreduce.read_retries":          {perSim(retries), "count"},
		"mapreduce.hedged_reads":          {perSim(hedged), "count"},
		"dfs.repairs":                     {perSim(repairs), "count"},
		"dfs.check_s":                     {secs(spanCheck), "s"},

		"snapshot.count":     {perSim(snaps), "count"},
		"snapshot.bytes":     {ratio(snapBytes, snaps), "bytes"},
		"snapshot.inspect_s": {perSim(inspect), "s"},

		"go.alloc_mb": {perSim(allocMB), "MB"},
		"go.gc_cpu_s": {perSim(gcCPU), "s"},

		"trace.jobs_per_s":          {tracedRate, "1/s"},
		"trace.untraced_jobs_per_s": {untracedRate, "1/s"},
		"trace.overhead":            {ratio(untracedRate, tracedRate) - 1, "ratio"},
		"trace.setup_share":         {setupShare, "ratio"},
		"trace.sanity":              {boolMetric(ok && (w.name != "scale-20k" || setupShare >= 0.5)), "bool"},
		"fail_ratio":                {ratio(float64(a.failed), float64(a.sims)), "ratio"},
	}
}

// largestLayer names the layer with the most self time and reports
// whether it matches the workload's known profile: the scheduler on
// swim-fair, event recording on faults-durable, set-up on scale-20k.
func largestLayer(tr *tracer, w *workloadDef) (string, bool) {
	self := func(id spanID) float64 { return tr.self(id).Seconds() }
	layers := map[string]float64{
		"setup":         tr.total(spanSetup).Seconds(),
		"finish":        tr.total(spanFinish).Seconds(),
		"scheduler":     self(callSelectMap) + self(callSelectReduce),
		"core":          self(callCoreHandle),
		"event.record":  self(callRecord),
		"event.counter": self(callCounter),
	}
	best := ""
	for name, v := range layers {
		if best == "" || v > layers[best] || (v == layers[best] && name < best) {
			best = name
		}
	}
	want := map[string]string{"swim-fair": "scheduler", "scale-20k": "setup", "faults-durable": "event.record"}[w.name]
	return best, want == "" || best == want
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
