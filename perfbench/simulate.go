package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"unsafe"

	"dare"
)

// errStagedCrash is the AfterCheckpoint error that kills a run at its
// midpoint checkpoint.
var errStagedCrash = errors.New("perfbench: staged crash")

// checkpointsPerSim sets the checkpoint cadence: every simulation is cut
// into about this many slices by its checkpoints.
const checkpointsPerSim = 8

// cpuNow returns the CPU time this process has consumed, all threads
// (the GC's background work on the second core included), in seconds.
// Every timed call starts after a forced collection, so it pays for its
// own garbage rather than for what the previous call left behind.
func cpuNow() float64 {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", errno))
	}
	return float64(ts.Sec) + float64(ts.Nsec)*1e-9
}

// simOutcome is everything one simulation contributes to the result.
type simOutcome struct {
	jobs     int          // jobs completed, unless a check found a mismatch
	cpu      float64      // host CPU of the timed public call
	setup    []float64    // set-up time samples
	recover  []float64    // interrupted-recovery time samples
	out      *dare.Output // the public run's Output (nil on error)
	harness  *dare.Output // the traced run's Output (nil on error)
	err      string       // first failure; "" when the simulation passed
	more     []string     // later failures of the same simulation
	mismatch bool         // a check found outputs that disagree

	// Traced simulations: host CPU of the harness-wired run with and
	// without decorators, and the Go runtime's deltas over the traced run.
	tracedCPU, untracedCPU float64
	allocMB, gcCPU         float64

	// Durable simulations: the timed run's event log and checkpoints.
	logBytes           int64
	snapshots          int
	snapBytes, inspect float64
}

func (so *simOutcome) fail(mismatch bool, format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	if mismatch {
		so.mismatch = true
		msg = "check failed: " + msg
	}
	if so.err == "" {
		so.err = msg
	} else {
		so.more = append(so.more, msg)
	}
}

// simulate runs simulation i of the workload and every correctness check
// on it: the harness-wired stack (traced when tr is set) must end like the
// public entry point, a successful run must complete every job, and a
// state-mode resume from the midpoint checkpoint must end exactly like the
// uninterrupted run — same Output and event-log suffix, or same error.
func simulate(cfg config, i int, tr *tracer) simOutcome {
	w := cfg.workload
	opts := w.options(simSeed(cfg.seed, i), cfg.sz)
	if cfg.forceError && i == 0 {
		opts.Scheduler = "no-such-scheduler"
	}
	var so simOutcome

	for r := 0; r < w.reps; r++ {
		d, err := measureSetup(opts, w.durable)
		if err != nil {
			// The same failure resurfaces, attributed, in the runs below.
			break
		}
		so.setup = append(so.setup, d)
	}

	// The benchmark's own wiring of the same run; under --trace 1 also a
	// traced one, which must end the same way.
	h := harnessRun(opts, w.durable, nil)
	if tr != nil {
		before := runtimeCounters()
		th := harnessRun(opts, w.durable, tr)
		after := runtimeCounters()
		so.allocMB = (after[0] - before[0]) / 1e6
		so.gcCPU = after[1] - before[1]
		so.tracedCPU, so.untracedCPU = th.cpu, h.cpu
		so.harness = th.out
		tr.events += int64(th.events)
		tr.coreErrors += int64(th.mgrErrors)
		if th.digest != h.digest {
			so.fail(true, "traced run digest %.16s differs from the untraced run's %.16s", th.digest, h.digest)
		}
	}
	if cfg.tamperDigest && i == 0 {
		h.digest = "tampered-" + h.digest
	}
	// Checkpoints cut the run into about checkpointsPerSim slices; the
	// recovery check resumes from the middle one.
	every := h.events/checkpointsPerSim + 1
	k := int(h.events/every+1) / 2
	crash := filepath.Join(cfg.dir, "crash.ckpt")
	removeCheckpoint(crash)

	// The timed public run. A durable one checkpoints as it goes, and its
	// midpoint generation is kept (hard-linked, so the later rotations
	// leave it alone) exactly as a process killed right after writing it
	// would leave it.
	popts := opts
	var want uninterrupted
	ckpt := filepath.Join(cfg.dir, "run.ckpt")
	if w.durable {
		removeCheckpoint(ckpt)
		want.log = newLogSink(0, nil)
		popts.EventLog = want.log
		ck := dare.CheckpointSpec{Path: ckpt, Every: every, AfterCheckpoint: func(n int) error {
			want.offsets = append(want.offsets, want.log.cut())
			if fi, err := os.Stat(ckpt); err == nil {
				so.snapBytes += float64(fi.Size())
			}
			if n == k {
				return os.Link(ckpt, crash)
			}
			return nil
		}}
		runtime.GC()
		c0 := cpuNow()
		want.out, want.err = dare.RunCheckpointed(popts, ck)
		so.cpu = cpuNow() - c0
		want.log.cut() // close the segment after the last checkpoint
		so.snapshots = len(want.offsets)
		so.logBytes = want.log.n
		if len(want.offsets) > 0 {
			c0 = cpuNow()
			if _, err := dare.InspectCheckpoint(ckpt); err != nil {
				so.fail(false, "inspecting checkpoint: %v", err)
			}
			so.inspect = cpuNow() - c0
		}
	} else {
		runtime.GC()
		c0 := cpuNow()
		want.out, want.err = dare.Run(popts)
		so.cpu = cpuNow() - c0
	}
	so.out = want.out
	if want.err != nil {
		so.fail(false, "%v", want.err)
	}
	if pdigest := digest(want.out, want.err, want.log); h.digest != pdigest {
		so.fail(true, "harness-wired run digest %.16s differs from the public run's %.16s", h.digest, pdigest)
	}
	if want.out != nil && len(want.out.Results) != len(opts.Workload.Jobs) {
		so.fail(true, "only %d of %d jobs completed", len(want.out.Results), len(opts.Workload.Jobs))
	}

	if k == 0 {
		// Only a run that failed at its very start has no midpoint; it
		// already counts as failed.
		if want.err == nil {
			so.fail(true, "no checkpoint before the run ended at %d events", h.events)
		}
		return so
	}
	if err := recoverCheck(cfg, &so, opts, every, k, crash, want); err != nil {
		so.fail(true, "recovery: %v", err)
	}
	if !so.mismatch {
		// A run the program aborted still did work up to its error; the
		// harness-wired run ended with the same error, so its tally of
		// completed jobs is the public run's.
		so.jobs = h.jobsDone
	}
	return so
}

// uninterrupted is how the timed public run ended, with its event log's
// segments and the log position at each checkpoint (durable workloads).
type uninterrupted struct {
	out     *dare.Output
	err     error
	log     *logSink
	offsets []int64
}

// harnessResult is how one harness-wired run ended.
type harnessResult struct {
	out       *dare.Output
	digest    string
	events    uint64 // engine events processed, to the end or the error
	jobsDone  int    // jobs completed without failing, to the end or the error
	cpu       float64
	mgrErrors int
}

// harnessRun runs opts through the benchmark's own wiring, traced when tr
// is set, with the event log (durable workloads) into a hashing sink.
func harnessRun(opts dare.Options, durable bool, tr *tracer) harnessResult {
	var log *logSink
	if durable {
		log = newLogSink(0, nil)
		opts.EventLog = log
	}
	var h harnessResult
	c0 := cpuNow()
	f := tr.enter(spanSim)
	st, err := buildStack(opts, tr)
	if err == nil {
		h.out, err = st.run()
	}
	f.exit()
	h.cpu = cpuNow() - c0
	h.digest = digest(h.out, err, log)
	if st != nil {
		h.events = st.cluster.Eng.Processed()
		for _, r := range st.tracker.Results() {
			if !r.Failed {
				h.jobsDone++
			}
		}
		if st.mgr != nil {
			h.mgrErrors = len(st.mgr.Errors())
		}
	}
	return h
}

// measureSetup times the public entry point from spec to a wired stack
// paused before its first event: a run whose interrupt line is raised
// before it starts stops at the first boundary, having processed nothing.
func measureSetup(opts dare.Options, durable bool) (float64, error) {
	if durable {
		opts.EventLog = io.Discard
	}
	var stop atomic.Bool
	stop.Store(true)
	runtime.GC()
	c0 := cpuNow()
	_, err := dare.RunCheckpointed(opts, dare.CheckpointSpec{Interrupt: &stop})
	d := cpuNow() - c0
	if !errors.Is(err, dare.ErrInterrupted) {
		return 0, fmt.Errorf("set-up: want an interrupted run, got %v", err)
	}
	return d, nil
}

// recoverCheck times interrupted state-mode recoveries from checkpoint k,
// then resumes from it to the end and compares with the uninterrupted
// run. Unless the timed run already kept checkpoint k at crash, it first
// stages a crash there: a checkpointed run killed right after writing it.
func recoverCheck(cfg config, so *simOutcome, opts dare.Options, every uint64, k int, crash string, want uninterrupted) error {
	work := filepath.Join(cfg.dir, "resume.ckpt")
	if cfg.workload.durable {
		if _, err := os.Stat(crash); err != nil {
			return fmt.Errorf("the timed run never wrote checkpoint %d: %v", k, err)
		}
	} else {
		_, err := dare.RunCheckpointed(opts, dare.CheckpointSpec{Path: crash, Every: every,
			AfterCheckpoint: func(n int) error {
				if n >= k {
					return errStagedCrash
				}
				return nil
			}})
		if !errors.Is(err, errStagedCrash) {
			return fmt.Errorf("staged crash at checkpoint %d did not fire: %v", k, err)
		}
	}
	if info, err := dare.InspectCheckpoint(crash); err != nil || !info.StateResumable {
		return fmt.Errorf("checkpoint %d is not state-resumable (%v)", k, err)
	}

	var discard io.Writer
	if want.log != nil {
		discard = io.Discard
	}
	for r := 0; r < cfg.workload.reps; r++ {
		if err := copyCheckpoint(crash, work); err != nil {
			return err
		}
		var stop atomic.Bool
		stop.Store(true)
		runtime.GC()
		c0 := cpuNow()
		_, err := dare.ResumeWithMode(work, discard, dare.CheckpointSpec{Path: work, Every: every, Interrupt: &stop}, dare.ResumeState)
		d := cpuNow() - c0
		if !errors.Is(err, dare.ErrInterrupted) {
			return fmt.Errorf("interrupted resume: want ErrInterrupted, got %v", err)
		}
		so.recover = append(so.recover, d)
	}

	if err := copyCheckpoint(crash, work); err != nil {
		return err
	}
	var rlog *logSink
	var sink io.Writer
	if want.log != nil {
		rlog = newLogSink(want.offsets[k-1], want.offsets[k:])
		sink = rlog
	}
	out, err := dare.ResumeWithMode(work, sink, dare.CheckpointSpec{Path: work, Every: every}, dare.ResumeState)
	if got, exp := digest(out, err, nil), digest(want.out, want.err, nil); got != exp {
		return fmt.Errorf("resumed run ends differently (%v) from the uninterrupted run (%v)", errText(err), errText(want.err))
	}
	if rlog != nil && !rlog.sameSegments(want.log.segs[k:]) {
		return fmt.Errorf("resumed event-log suffix differs from the uninterrupted run's after checkpoint %d", k)
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return "completed"
	}
	return err.Error()
}

// digest identifies how a run ended: its error text, or its Output and,
// when it kept one, its event log. A failed run's log is left out: it
// ends at the recorder's last flush, which checkpoints move.
func digest(out *dare.Output, err error, log *logSink) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error: %s", err)
		return hex.EncodeToString(h.Sum(nil))
	}
	if b, merr := json.Marshal(out); merr != nil {
		fmt.Fprintf(h, "unencodable output: %v", merr)
	} else {
		h.Write(b)
	}
	if log != nil {
		h.Write(log.whole.Sum(nil))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// logSink is the byte-counting discard sink event logs go to. It hashes
// the whole stream and, separately, each segment between cut points, so
// a resumed run's log suffix can be compared segment by segment with the
// uninterrupted run's without keeping either in memory.
type logSink struct {
	n     int64 // absolute stream position (starts at the base offset)
	whole hash.Hash
	seg   hash.Hash
	segs  [][]byte
	cuts  []int64 // pending absolute cut positions, ascending
}

func newLogSink(base int64, cuts []int64) *logSink {
	return &logSink{n: base, whole: sha256.New(), seg: sha256.New(), cuts: cuts}
}

func (s *logSink) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		chunk := p
		if len(s.cuts) > 0 && s.n+int64(len(p)) >= s.cuts[0] {
			chunk = p[:s.cuts[0]-s.n]
		}
		s.whole.Write(chunk)
		s.seg.Write(chunk)
		s.n += int64(len(chunk))
		p = p[len(chunk):]
		if len(s.cuts) > 0 && s.n == s.cuts[0] {
			s.cuts = s.cuts[1:]
			s.cut()
		}
	}
	return total, nil
}

// cut closes the current segment and returns the stream position.
func (s *logSink) cut() int64 {
	s.segs = append(s.segs, s.seg.Sum(nil))
	s.seg.Reset()
	return s.n
}

// sameSegments closes the final segment and compares the segment hashes.
func (s *logSink) sameSegments(want [][]byte) bool {
	s.cut()
	if len(s.segs) != len(want) {
		return false
	}
	for i := range want {
		if !bytes.Equal(s.segs[i], want[i]) {
			return false
		}
	}
	return true
}

func removeCheckpoint(path string) {
	os.Remove(path)
	os.Remove(path + ".prev")
}

// copyCheckpoint gives a resume its own copy of a checkpoint: a resume
// writes its final checkpoint over the file it started from.
func copyCheckpoint(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	removeCheckpoint(dst)
	return os.WriteFile(dst, b, 0o644)
}

// runtimeCounters reads the Go runtime's cumulative heap allocation
// (bytes) and GC CPU time (seconds).
func runtimeCounters() [2]float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var v [2]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return v
}
