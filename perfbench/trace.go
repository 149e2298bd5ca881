package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dare/internal/dfs"
	"dare/internal/event"
	"dare/internal/mapreduce"
	"dare/internal/sim"
	"dare/internal/topology"
)

// spanID names a timed region. Regions below numSpans are spans, a few
// per simulation, each recorded and timed exactly; the per-call regions
// after them run millions of times per simulation and are sampled.
type spanID int

const (
	spanSim spanID = iota
	spanSetup
	spanNewCluster
	spanNewTracker
	spanNewManager
	spanPlacementCV
	spanRun
	spanDrive
	spanFinish
	spanCheck
	callSelectMap
	callSelectReduce
	callCoreHandle
	callRecord
	callCounter
	numRegions

	numSpans = callSelectMap
)

var regionNames = [numRegions]string{
	spanSim:          "sim",
	spanSetup:        "setup",
	spanNewCluster:   "mapreduce.new_cluster",
	spanNewTracker:   "mapreduce.new_tracker",
	spanNewManager:   "core.new_manager",
	spanPlacementCV:  "metrics.placement_cv",
	spanRun:          "sim.run",
	spanDrive:        "sim.drive",
	spanFinish:       "finish",
	spanCheck:        "dfs.check",
	callSelectMap:    "scheduler.map",
	callSelectReduce: "scheduler.reduce",
	callCoreHandle:   "core.handle",
	callRecord:       "event.record",
	callCounter:      "event.counter",
}

const (
	// driveSlice is how many engine events the traced drive runs between
	// samples of the pending-event set.
	driveSlice = 4096
	// sampleMask times one call in 16 on average. A clock read costs tens
	// of nanoseconds here, as much as a whole scheduler call on an idle
	// heartbeat, so timing every call would swamp what it measures.
	sampleMask = 15
)

// spanRec is one recorded span; Parent is an index into the span list
// (-1 for a root) and Run the simulation it belongs to.
type spanRec struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanAcc totals one span region exactly; child is the part of total
// that nested spans covered.
type spanAcc struct {
	count        int64
	total, child time.Duration
}

// callAcc counts the calls into one per-call region made directly inside
// one parent region, and times a random sample of them.
type callAcc struct {
	calls, sampled int64
	sampledDur     time.Duration
}

// estimate extrapolates the sampled time to every call.
func (a callAcc) estimate() time.Duration {
	if a.sampled == 0 {
		return 0
	}
	return time.Duration(float64(a.sampledDur) * float64(a.calls) / float64(a.sampled))
}

type frame struct {
	id    spanID
	start time.Duration
	child time.Duration
	span  int
}

// tracer times the layers of traced simulations from outside, through
// decorators at each layer boundary. A region's self time is its time
// minus what the regions nested in it took: a bus event recorded while
// the DARE manager handles a launch counts for event.record, not core,
// and the drive's self time is what no decorator covers (engine,
// heartbeat driver, tracker, DFS lookups).
type tracer struct {
	t0    time.Time
	run   int
	cur   spanID // innermost active region
	stack []frame
	spans []spanRec
	span  [numSpans]spanAcc
	calls [numRegions][numRegions]callAcc // [call region][parent region]
	hits  [numRegions]int64               // selector calls that returned a task
	hist  [numRegions]latencyHist
	rng   uint64

	// clockCost is what the timing window of an empty call reads; it is
	// taken off every sampled duration. callCost is everything a decorated
	// call adds; it is taken off the parent's self time.
	clockCost, callCost time.Duration

	// Counters the decorators observe on the way through.
	busEvents, coreEvents, nonLocalReads int64
	events, coreErrors                   int64
	pendingMax                           int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), rng: 0x9E3779B97F4A7C15}
	t.calibrate()
	return t
}

// calibrate measures, on a scratch tracer, what a decorated call with an
// empty body costs in all (callCost) and what its sampled timing window
// reads (clockCost: the clock reads and bookkeeping inside the window).
func (t *tracer) calibrate() {
	const n = 1 << 14
	var costs []time.Duration
	scratch := &tracer{t0: t.t0, rng: t.rng}
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			scratch.call(callCounter).done(false)
		}
		costs = append(costs, time.Since(start)/n)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	t.callCost = costs[len(costs)/2]
	t.clockCost = time.Duration(scratch.hist[callCounter].quantile(0.5))
}

// frameRef closes the span enter opened; the zero value (from a nil
// tracer) is a no-op, so untraced code paths share the same calls.
type frameRef struct{ t *tracer }

func (t *tracer) enter(id spanID) frameRef {
	if t == nil {
		return frameRef{}
	}
	f := frame{id: id, start: time.Since(t.t0), span: len(t.spans)}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].span
	}
	t.spans = append(t.spans, spanRec{Name: regionNames[id], Run: t.run, Start: int64(f.start), Parent: parent})
	t.stack = append(t.stack, f)
	t.cur = id
	return frameRef{t}
}

func (r frameRef) exit() {
	t := r.t
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	acc := &t.span[f.id]
	acc.count++
	acc.total += d
	acc.child += f.child
	t.cur = spanSim
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
		t.cur = t.stack[n-1].id
	}
	t.spans[f.span].End = int64(now)
}

// callRef is one decorated call in progress.
type callRef struct {
	t      *tracer
	id     spanID
	parent spanID
	start  time.Duration
	timed  bool
}

func (t *tracer) call(id spanID) callRef {
	c := callRef{t: t, id: id, parent: t.cur}
	t.cur = id
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if t.rng&sampleMask == 0 {
		c.timed = true
		c.start = time.Since(t.t0)
	}
	return c
}

func (c callRef) done(ok bool) {
	t := c.t
	acc := &t.calls[c.id][c.parent]
	acc.calls++
	if c.timed {
		d := max(time.Since(t.t0)-c.start-t.clockCost, 0)
		acc.sampled++
		acc.sampledDur += d
		t.hist[c.id].add(d)
	}
	if ok {
		t.hits[c.id]++
	}
	t.cur = c.parent
}

// callCount is the number of calls into region id.
func (t *tracer) callCount(id spanID) int64 {
	var n int64
	for _, a := range t.calls[id] {
		n += a.calls
	}
	return n
}

// total is region id's time over every traced simulation; for per-call
// regions it is extrapolated from the sampled calls.
func (t *tracer) total(id spanID) time.Duration {
	if id < numSpans {
		return t.span[id].total
	}
	var d time.Duration
	for _, a := range t.calls[id] {
		d += a.estimate()
	}
	return d
}

// self is region id's total minus the nested spans and calls it covered
// and, for spans, the bookkeeping of the decorated calls inside them.
func (t *tracer) self(id spanID) time.Duration {
	d := t.total(id)
	if id < numSpans {
		d -= t.span[id].child
	}
	for c := numSpans; c < numRegions; c++ {
		a := t.calls[c][id]
		d -= a.estimate()
		if id < numSpans {
			d -= time.Duration(a.calls) * t.callCost
		}
	}
	return d
}

// drive is the RunWith drive of a traced simulation: the plain run to
// the horizon, stepped in slices so the pending-event set can be sampled.
// Stepping only adds budget stops between events, so the run is the same.
func (t *tracer) drive(eng *sim.Engine, until float64) error {
	defer t.enter(spanDrive).exit()
	for {
		if p := eng.Pending(); p > t.pendingMax {
			t.pendingMax = p
		}
		if eng.RunUntilOutcome(until, eng.Processed()+driveSlice) != sim.RunBudget {
			return nil
		}
	}
}

// tracedSelector times the scheduler's task selection.
type tracedSelector struct {
	mapreduce.TaskSelector
	tr *tracer
}

func (t *tracer) wrapSelector(s mapreduce.TaskSelector) mapreduce.TaskSelector {
	if t == nil {
		return s
	}
	return &tracedSelector{TaskSelector: s, tr: t}
}

func (s *tracedSelector) SelectMapTask(node topology.NodeID, now float64) (*mapreduce.Job, dfs.BlockID, bool) {
	c := s.tr.call(callSelectMap)
	j, b, ok := s.TaskSelector.SelectMapTask(node, now)
	c.done(ok)
	return j, b, ok
}

func (s *tracedSelector) SelectReduceTask(node topology.NodeID, now float64) (*mapreduce.Job, bool) {
	c := s.tr.call(callSelectReduce)
	j, ok := s.TaskSelector.SelectReduceTask(node, now)
	c.done(ok)
	return j, ok
}

// tracedSub times one bus subscriber (the event recorder or counter).
type tracedSub struct {
	inner event.Subscriber
	id    spanID
	tr    *tracer
}

func (t *tracer) wrapSub(s event.Subscriber, id spanID) event.Subscriber {
	if t == nil {
		return s
	}
	return &tracedSub{inner: s, id: id, tr: t}
}

func (s *tracedSub) HandleEvent(ev event.Event) {
	if s.id == callCounter {
		s.tr.busEvents++
	}
	c := s.tr.call(s.id)
	s.inner.HandleEvent(ev)
	c.done(false)
}

// coreProbe times the DARE manager's bus handling and counts the
// non-local map reads it is offered (the captures it could make).
type coreProbe struct {
	inner event.Subscriber
	tr    *tracer
}

func (p *coreProbe) HandleEvent(ev event.Event) {
	p.tr.coreEvents++
	if ev.Kind == event.TaskLaunch && ev.Block >= 0 && !ev.Flag {
		p.tr.nonLocalReads++
	}
	c := p.tr.call(callCoreHandle)
	p.inner.HandleEvent(ev)
	c.done(false)
}

// latencyHist is a log-linear histogram of call durations: 16 linear
// sub-buckets per power of two, so a quantile is within 1/16 of its value.
type latencyHist struct {
	counts [64 * 16]int64
	n      int64
}

func (h *latencyHist) add(d time.Duration) {
	h.counts[histBucket(uint64(d))]++
	h.n++
}

func histBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	e := bits.Len64(v) - 5 // v>>e is in [16, 32)
	return (e+1)*16 + int(v>>e) - 16
}

// bucketMid is the midpoint of bucket i's value range, in nanoseconds.
func bucketMid(i int) float64 {
	if i < 16 {
		return float64(i)
	}
	e := i/16 - 1
	lo := uint64(16+i%16) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

// quantile returns the q-quantile of the recorded durations in ns.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return 0
}

// writeSpans writes the traced run as JSONL to path: a header line with
// each region's calls, total and self seconds, then one line per span.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	regions := map[string]map[string]float64{}
	for id := spanID(0); id < numRegions; id++ {
		n := t.callCount(id)
		if id < numSpans {
			n = t.span[id].count
		}
		if n > 0 {
			regions[regionNames[id]] = map[string]float64{
				"calls": float64(n), "total_s": t.total(id).Seconds(), "self_s": t.self(id).Seconds(),
			}
		}
	}
	header := map[string]any{"regions": regions, "clock_cost_ns": t.clockCost.Nanoseconds(), "call_cost_ns": t.callCost.Nanoseconds()}
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("perfbench: writing spans: %w", err)
	}
	return f.Close()
}
