package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"sync/atomic"

	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/stats"
	"dare/internal/workload"
)

// Checkpoint section IDs inside a snapshot.File. A checkpoint is the
// spec, the cursor, and the state image: one img.* section per layer,
// each written by that layer's EncodeState. The image is both what a
// state-mode resume decodes and what either resume mode verifies
// against (see verifyImage).
const (
	sectionSpec   = "spec"   // RunSpec JSON — the run's serializable identity
	sectionCursor = "cursor" // cursorRec JSON — where the run was cut

	sectionImgEngine  = "img.engine"  // pending-event set (genesis refs + tagged records)
	sectionImgDFS     = "img.dfs"     // name-node registry
	sectionImgTracker = "img.tracker" // compute layer: jobs, slots, scheduler, in-flight tasks
	sectionImgCore    = "img.core"    // DARE manager / Scarlett controller
	sectionImgStream  = "img.stream"  // service-mode generator cursor
	sectionImgCounts  = "img.counts"  // bus event tallies at the cut
)

// imageSectionIDs lists the state-image sections a checkpoint must carry;
// img.stream only for a service-mode run.
func imageSectionIDs(stream bool) []string {
	ids := []string{sectionImgEngine, sectionImgDFS, sectionImgTracker, sectionImgCore, sectionImgCounts}
	if stream {
		ids = append(ids, sectionImgStream)
	}
	return ids
}

// DefaultCheckpointEvery is the checkpoint cadence (in processed
// simulation events) when CheckpointSpec.Every is unset.
const DefaultCheckpointEvery = 200_000

// ErrInterrupted reports that the interrupt line was raised; the run
// stopped at a clean between-events boundary and, when checkpointing was
// armed, a final checkpoint was flushed first — resuming from it continues
// the run as if the interrupt never happened.
var ErrInterrupted = errors.New("runner: run interrupted")

// CheckpointSpec arms durable checkpointing for RunCheckpointed and
// Resume.
type CheckpointSpec struct {
	// Path is the checkpoint file; Path+".prev" keeps the previous good
	// generation (see snapshot.WriteFile).
	Path string
	// Every is the cadence in processed simulation events (<= 0 uses
	// DefaultCheckpointEvery).
	Every uint64
	// Interrupt, when non-nil, is polled between events: setting it (from
	// a signal handler) makes the run flush a final checkpoint and return
	// ErrInterrupted.
	Interrupt *atomic.Bool
	// AfterCheckpoint, when non-nil, runs after each durable checkpoint
	// write with the 1-based count written so far. An error aborts the
	// run — the crash-resume tests and dare-sim's -crash-after-checkpoints
	// use it to die at an exact, reproducible boundary.
	AfterCheckpoint func(n int) error
}

func (c CheckpointSpec) every() uint64 {
	if c.Every == 0 {
		return DefaultCheckpointEvery
	}
	return c.Every
}

// DivergenceError reports that a resumed run's state does not match the
// checkpoint it resumed from — determinism was broken between the
// checkpointing build/config and the resuming one. Rows name what
// diverged: the engine clock, an output stream, or an img.* section (the
// layer) with its first differing byte.
type DivergenceError struct{ Rows []string }

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("runner: resumed state diverges from checkpoint: %s", strings.Join(e.Rows, "; "))
}

// cursorRec pins the cut point: the engine's processed-event count (the
// replay target), its clock and sequence counter, and the byte/CRC
// position of each externally visible output stream at the cut. The
// output positions let Resume prove the re-emitted prefix is identical to
// what the original process had already written.
type cursorRec struct {
	Processed uint64  `json:"processed"`
	Now       float64 `json:"now"`
	Seq       uint64  `json:"seq"`

	EventBytes int64  `json:"eventBytes"`
	EventCRC   uint32 `json:"eventCRC,omitempty"`

	ReportBytes int64  `json:"reportBytes,omitempty"`
	ReportCRC   uint32 `json:"reportCRC,omitempty"`

	// Checkpoints counts durable writes so far (resume continues the
	// AfterCheckpoint numbering rather than restarting it).
	Checkpoints int `json:"checkpoints"`

	// StreamEmitted/StreamNext record the stream generator position for
	// service-mode runs (0 for batch runs).
	StreamEmitted int `json:"streamEmitted,omitempty"`
	StreamNext    int `json:"streamNext,omitempty"`
}

// countingWriter tracks the byte count and running CRC-32 of everything
// written through it — the cheap identity of an output stream's prefix.
type countingWriter struct {
	w   io.Writer
	n   int64
	crc hash.Hash32
}

func newCountingWriter(w io.Writer) *countingWriter {
	return &countingWriter{w: w, crc: crc32.NewIEEE()}
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// durable drives a runState in checkpointed slices: it is the RunWith
// drive closure shared by fresh checkpointed runs and resumes. The
// nextStop watermark persists across the tracker's drive segments
// (workload horizon, then each repair-drain extension), so checkpoint
// cadence is uniform in processed events regardless of segmentation.
type durable struct {
	rs       *runState
	ck       CheckpointSpec
	specData []byte
	cw       *countingWriter // event-log wrapper; nil when no event log
	rw       *countingWriter // stream-report wrapper; nil for batch runs
	stream   *streamDriver   // non-nil for service-mode runs

	nextStop uint64
	done     int // durable checkpoints written

	// cut, on a replay resume, is the checkpoint to verify against once
	// the replay reaches its cut; nil from then on.
	cut *resumePoint

	// watermark is the engine sequence at first drive entry — the genesis
	// boundary for EncodePending. Events below it are recreated by
	// deterministic reconstruction; events above must carry state tags.
	watermark  uint64
	wmCaptured bool
	// restore, on a state-mode resume, is the checkpoint whose image
	// applyState decodes at first drive entry, before any event processes.
	restore *resumePoint
	// baseEvent/baseReport offset the output cursors on a state-mode
	// resumed run: the sinks only receive post-cut bytes, but cursors must
	// describe the full logical stream (prefix + suffix). A non-zero base
	// makes the prefix CRC unknowable, so those cursors carry CRC 0 and
	// later resumes verify byte counts only.
	baseEvent  int64
	baseReport int64

	// enc holds one encoder per image section, reused by every
	// imageSections call so a run's checkpoints and resume checks
	// allocate the image buffers once.
	enc []*snapshot.Enc
}

// resumePoint is the checkpoint a resume continues from: the cursor of
// its cut and the file holding the stored state image.
type resumePoint struct {
	cursor cursorRec
	f      *snapshot.File
}

func (d *durable) drive(eng *sim.Engine, until float64) error {
	if !d.wmCaptured {
		// First drive entry: construction and genesis scheduling are done,
		// nothing has processed. This sequence number separates genesis
		// events (recreated by reconstruction) from runtime ones (which
		// need tags) — and it is the moment a state image can be applied.
		d.wmCaptured = true
		d.watermark = eng.Seq()
		if d.restore != nil {
			if err := d.applyState(); err != nil {
				return err
			}
		}
	}
	for {
		switch eng.RunUntilOutcome(until, d.nextStop) {
		case sim.RunBudget:
			if d.cut != nil && eng.Processed() == d.cut.cursor.Processed {
				if err := d.verifyCut(); err != nil {
					return err
				}
				// The replay is verified: from here the run is live. Arm
				// the interrupt line and fall into the normal cadence.
				d.cut = nil
				eng.SetInterrupt(d.ck.Interrupt)
				d.nextStop = eng.Processed() + d.ck.every()
				continue
			}
			if err := d.checkpoint(); err != nil {
				return err
			}
			d.nextStop = eng.Processed() + d.ck.every()
		case sim.RunInterrupted:
			if err := d.checkpoint(); err != nil {
				return err
			}
			return ErrInterrupted
		default:
			// Drained or stopped: this drive segment is complete.
			return nil
		}
	}
}

// checkpoint flushes the recorder (so the output cursors are exact) and
// writes one durable generation. Checkpointing is pure observation: it
// processes no events and draws from no stream, so an armed run is
// byte-identical to an unarmed one.
func (d *durable) checkpoint() error {
	if d.rs.rec != nil {
		// Flush even when unarmed: an interrupt-only run must leave its
		// JSONL sink complete up to the stop boundary.
		if err := d.rs.rec.Flush(); err != nil {
			return fmt.Errorf("runner: flushing event log before checkpoint: %w", err)
		}
	}
	if d.ck.Path == "" {
		// Checkpointing unarmed (a run driven only for interrupt support):
		// nothing durable to write.
		return nil
	}
	cur := d.cursorNow()
	cur.Checkpoints = d.done + 1
	curData, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	img, err := d.imageSections()
	if err != nil {
		return fmt.Errorf("runner: encoding checkpoint state image: %w", err)
	}
	f := &snapshot.File{Sections: append([]snapshot.Section{
		{ID: sectionSpec, Data: d.specData},
		{ID: sectionCursor, Data: curData},
	}, img...)}
	if err := snapshot.WriteFile(d.ck.Path, f); err != nil {
		return fmt.Errorf("runner: writing checkpoint: %w", err)
	}
	d.done++
	if d.ck.AfterCheckpoint != nil {
		if err := d.ck.AfterCheckpoint(d.done); err != nil {
			return err
		}
	}
	return nil
}

func (d *durable) cursorNow() cursorRec {
	eng := d.rs.cluster.Eng
	cur := cursorRec{
		Processed:   eng.Processed(),
		Now:         eng.Now(),
		Seq:         eng.Seq(),
		Checkpoints: d.done,
	}
	if d.cw != nil {
		cur.EventBytes = d.baseEvent + d.cw.n
		if d.baseEvent == 0 {
			cur.EventCRC = d.cw.crc.Sum32()
		}
	}
	if d.rw != nil {
		cur.ReportBytes = d.baseReport + d.rw.n
		if d.baseReport == 0 {
			cur.ReportCRC = d.rw.crc.Sum32()
		}
	}
	if d.stream != nil {
		cur.StreamEmitted = d.stream.src.Emitted()
		cur.StreamNext = d.stream.nextWindow
	}
	return cur
}

// verifyCut proves the replayed run is the run that was checkpointed: the
// engine clock, every output stream's byte/CRC position and the state
// image must match what the checkpoint recorded at the same
// processed-event count. Any mismatch is a DivergenceError.
func (d *durable) verifyCut() error {
	if d.rs.rec != nil {
		if err := d.rs.rec.Flush(); err != nil {
			return fmt.Errorf("runner: flushing event log at resume cut: %w", err)
		}
	}
	var rows []string
	now := d.cursorNow()
	want := d.cut.cursor
	if now.Now != want.Now || now.Seq != want.Seq {
		rows = append(rows, fmt.Sprintf("engine clock/seq: got (%v, %d), checkpoint (%v, %d)", now.Now, now.Seq, want.Now, want.Seq))
	}
	// CRC 0 means the checkpoint was written by a state-mode resumed run
	// whose prefix CRC was unknowable: verify byte counts only.
	if d.cw != nil && (now.EventBytes != want.EventBytes || (want.EventCRC != 0 && now.EventCRC != want.EventCRC)) {
		rows = append(rows, fmt.Sprintf("event log: got %d bytes crc %08x, checkpoint %d bytes crc %08x", now.EventBytes, now.EventCRC, want.EventBytes, want.EventCRC))
	}
	if d.rw != nil && (now.ReportBytes != want.ReportBytes || (want.ReportCRC != 0 && now.ReportCRC != want.ReportCRC)) {
		rows = append(rows, fmt.Sprintf("stream report: got %d bytes crc %08x, checkpoint %d bytes crc %08x", now.ReportBytes, now.ReportCRC, want.ReportBytes, want.ReportCRC))
	}
	rows = append(rows, d.verifyImage(d.cut.f)...)
	if len(rows) > 0 {
		return &DivergenceError{Rows: rows}
	}
	d.done = want.Checkpoints
	return nil
}

// verifyImage is the resume verifier of both modes: it re-encodes the
// live run's state image and compares each section with the bytes the
// checkpoint stored. It returns one row per differing section, naming
// the section (the layer) and the first differing byte.
func (d *durable) verifyImage(f *snapshot.File) []string {
	live, err := d.imageSections()
	if err != nil {
		return []string{fmt.Sprintf("re-encoding the state image: %v", err)}
	}
	var rows []string
	for _, s := range live {
		want, _ := f.Section(s.ID)
		if bytes.Equal(s.Data, want) {
			continue
		}
		at := min(len(s.Data), len(want))
		for i := 0; i < at; i++ {
			if s.Data[i] != want[i] {
				at = i
				break
			}
		}
		rows = append(rows, fmt.Sprintf("%s: first difference at byte %d of %d", s.ID, at, len(want)))
	}
	return rows
}

// newDurable wires a run for the durable driver: the full stack from
// opts and, when scfg is non-nil, the service-mode stream generator. The
// event log and the stream report are wrapped in counting writers. With
// restoring set, reconstruction-time events go to io.Discard: they are
// the prefix the original process already wrote, and applyState arms
// the real sink once the image is applied. A Path-armed spec needs RNG
// stream state access, since every checkpoint carries the state image;
// specData nil transcribes the spec from opts.
func newDurable(opts Options, scfg *StreamRunSpec, report io.Writer, ck CheckpointSpec, specData []byte, restoring bool) (*durable, error) {
	var src *workload.Stream
	if scfg != nil {
		if err := validateStreamOptions(opts, *scfg); err != nil {
			return nil, err
		}
		src = workload.NewStream(workload.StreamConfig{
			Gen:              scfg.Gen,
			DiurnalAmplitude: scfg.DiurnalAmplitude,
			DiurnalPeriod:    scfg.DiurnalPeriod,
		})
		opts.Workload = src.Workload()
	}
	if ck.Path != "" {
		if !stats.StateSerializable() {
			return nil, fmt.Errorf("runner: checkpoints carry RNG stream state, which this runtime does not expose")
		}
		if specData == nil {
			spec, err := SpecFromOptions(opts)
			if err != nil {
				return nil, err
			}
			spec.Stream = scfg
			if specData, err = encodeSpec(spec); err != nil {
				return nil, err
			}
		}
	}
	d := &durable{ck: ck, specData: specData}
	if opts.EventLog != nil {
		d.cw = newCountingWriter(opts.EventLog)
		opts.EventLog = d.cw
		if restoring {
			opts.EventLog = io.Discard
		}
	}
	var reportW io.Writer
	if report != nil {
		d.rw = newCountingWriter(report)
		reportW = d.rw
	}
	rs, err := newRunState(opts)
	if err != nil {
		return nil, err
	}
	d.rs = rs
	if scfg != nil {
		rs.tracker.SetStreaming(true)
		d.stream = &streamDriver{spec: *scfg, src: src, rs: rs, report: reportW}
	}
	return d, nil
}

// startFresh arms a run that begins at genesis: checkpoints every
// ck.Every events (none without a Path) and a live interrupt line.
func (d *durable) startFresh() {
	eng := d.rs.cluster.Eng
	d.nextStop = math.MaxUint64
	if d.ck.Path != "" {
		d.nextStop = eng.Processed() + d.ck.every()
	}
	eng.SetInterrupt(d.ck.Interrupt)
}

// run primes the stream generator (service mode), drives the run to its
// end and summarizes it.
func (d *durable) run() (*Output, error) {
	if d.stream != nil {
		d.stream.prime()
	}
	results, err := d.rs.tracker.RunWith(d.drive)
	if err != nil {
		return nil, err
	}
	if d.stream != nil && d.stream.reportErr != nil {
		return nil, d.stream.reportErr
	}
	if d.cut != nil {
		return nil, &DivergenceError{Rows: []string{fmt.Sprintf(
			"run completed at %d processed events, before the checkpoint cut at %d — the replay is not the run that was checkpointed",
			d.rs.cluster.Eng.Processed(), d.cut.cursor.Processed)}}
	}
	return d.rs.finish(results)
}

// RunCheckpointed is Run with durable checkpoints every ck.Every processed
// events: a process killed at any instant can continue from the last good
// generation with Resume and produce the identical Output and event trace.
// When ck.Interrupt is raised mid-run it returns ErrInterrupted after
// flushing a final checkpoint. With an empty Path and a non-nil Interrupt
// the run is interrupt-only: nothing durable is written, but a raised
// line still stops it cleanly between events with the event log flushed.
func RunCheckpointed(opts Options, ck CheckpointSpec) (*Output, error) {
	if ck.Path == "" && ck.Interrupt == nil {
		return nil, fmt.Errorf("runner: CheckpointSpec needs a Path (durable checkpoints) or an Interrupt line (clean-stop only)")
	}
	d, err := newDurable(opts, nil, nil, ck, nil, false)
	if err != nil {
		return nil, err
	}
	d.startFresh()
	return d.run()
}

// Resume continues a batch run from the checkpoint at path (falling back
// to path+".prev" when the primary is torn — a SIGKILL mid-write) by
// replay: the run is rebuilt from the stored spec and replayed from
// genesis to the recorded cut, where its re-encoded state image must
// match the checkpoint's (a mismatch is a DivergenceError); then the run
// continues live with the same checkpoint cadence. eventLog, when
// non-nil, receives the complete event trace from genesis —
// byte-identical to an uninterrupted run's — and must be a fresh sink
// (the CLI re-opens the log file truncated).
func Resume(path string, eventLog io.Writer, ck CheckpointSpec) (*Output, error) {
	return resume(path, eventLog, nil, ck, ResumeReplay, false)
}

// resume is the one resume path behind Resume, ResumeWithMode,
// ResumeStream and ResumeStreamWithMode. It loads the checkpoint at path,
// checks that it holds the expected run shape and that the sinks can
// reproduce the recorded outputs, rebuilds the run from the stored spec,
// and sets up either a replay to the cut or a state restore. Both end in
// verifyImage before the run goes live. The interrupt line stays unarmed
// until then: a signal before the cut verifies must not write a
// checkpoint generation that precedes the one being resumed.
func resume(path string, eventLog, report io.Writer, ck CheckpointSpec, mode ResumeMode, stream bool) (*Output, error) {
	replay := mode == ResumeReplay || mode == ""
	if !replay && mode != ResumeState {
		return nil, fmt.Errorf("runner: unknown resume mode %q", mode)
	}
	if ck.Path == "" {
		ck.Path = path
	}
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		return nil, err
	}
	spec, cur, err := decodeCheckpoint(f)
	if err != nil {
		return nil, err
	}
	switch {
	case stream && spec.Stream == nil:
		return nil, fmt.Errorf("runner: checkpoint %s holds a batch run; use Resume", path)
	case !stream && spec.Stream != nil:
		return nil, fmt.Errorf("runner: checkpoint %s holds a streaming run; use ResumeStream", path)
	case eventLog == nil && cur.EventBytes > 0:
		return nil, fmt.Errorf("runner: checkpoint recorded an event log (%d bytes at cut); resume needs the re-opened sink", cur.EventBytes)
	case report == nil && cur.ReportBytes > 0:
		return nil, fmt.Errorf("runner: checkpoint recorded a stream report (%d bytes at cut); resume needs the re-opened sink", cur.ReportBytes)
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	opts.EventLog = eventLog
	if stream {
		opts.Workload = nil // rebuilt by the stream generator
	}
	d, err := newDurable(opts, spec.Stream, report, ck, mustSection(f, sectionSpec), !replay)
	if err != nil {
		return nil, err
	}
	at := &resumePoint{cursor: *cur, f: f}
	if replay {
		d.cut = at
		d.nextStop = cur.Processed
	} else {
		d.restore = at
		d.baseEvent, d.baseReport = cur.EventBytes, cur.ReportBytes
	}
	return d.run()
}

// decodeCheckpoint reads the spec and cursor of a checkpoint and checks
// that it carries every state-image section its run shape needs.
func decodeCheckpoint(f *snapshot.File) (*RunSpec, *cursorRec, error) {
	specData, ok := f.Section(sectionSpec)
	if !ok {
		return nil, nil, fmt.Errorf("%w: checkpoint has no %q section", snapshot.ErrFormat, sectionSpec)
	}
	spec, err := decodeSpec(specData)
	if err != nil {
		return nil, nil, err
	}
	curData, ok := f.Section(sectionCursor)
	if !ok {
		return nil, nil, fmt.Errorf("%w: checkpoint has no %q section", snapshot.ErrFormat, sectionCursor)
	}
	var cur cursorRec
	if err := json.Unmarshal(curData, &cur); err != nil {
		return nil, nil, fmt.Errorf("runner: decoding checkpoint cursor: %w", err)
	}
	for _, id := range imageSectionIDs(spec.Stream != nil) {
		if _, ok := f.Section(id); !ok {
			return nil, nil, fmt.Errorf("%w: checkpoint has no %q section", snapshot.ErrFormat, id)
		}
	}
	return spec, &cur, nil
}

func mustSection(f *snapshot.File, id string) []byte {
	b, _ := f.Section(id)
	return b
}
