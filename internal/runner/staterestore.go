package runner

import (
	"fmt"
	"io"

	"dare/internal/core"
	"dare/internal/event"
	"dare/internal/sim"
	"dare/internal/snapshot"
	"dare/internal/stats"
)

// ResumeMode selects how Resume/ResumeStream rebuild a run's mutable
// state from a checkpoint.
type ResumeMode string

const (
	// ResumeReplay reconstructs the run from its spec and replays the
	// event history from genesis to the cut — O(history).
	ResumeReplay ResumeMode = "replay"
	// ResumeState decodes the checkpoint's direct state image and
	// re-enqueues the pending-event set — O(state), independent of how
	// long the run had executed.
	ResumeState ResumeMode = "state"
)

// ParseResumeMode maps a CLI flag value to a ResumeMode; the empty
// string means the default, ResumeState.
func ParseResumeMode(s string) (ResumeMode, error) {
	switch ResumeMode(s) {
	case "":
		return ResumeState, nil
	case ResumeReplay, ResumeState:
		return ResumeMode(s), nil
	}
	return "", fmt.Errorf("runner: unknown resume mode %q (want %q or %q)", s, ResumeReplay, ResumeState)
}

// Event-tag kind ranges. The mapreduce layer owns 1–63 and the core
// policy layer 64–79 (see their tag declarations); the runner's stream
// driver owns 80–95.
const TagStreamWindow uint16 = 80

// streamWindowTag marks the service-mode window-boundary event. The
// closure is rebuilt from the stream driver itself; the boundary time
// rides the event coordinates, so the payload is empty.
type streamWindowTag struct{}

func (streamWindowTag) TagKind() uint16           { return TagStreamWindow }
func (streamWindowTag) EncodeTag(e *snapshot.Enc) {}

// ResumeInfo describes a checkpoint so a CLI can prepare the right sinks
// before resuming: a state-mode resume appends the post-cut suffix to the
// dead process's files (truncated to the recorded byte positions), while
// a replay rewrites both streams from genesis.
type ResumeInfo struct {
	// Stream reports a service-mode checkpoint (resume with ResumeStream).
	Stream bool
	// StateResumable reports that this build can decode the checkpoint's
	// state image (every checkpoint carries one; decoding it needs RNG
	// stream state access).
	StateResumable bool
	// EventBytes/ReportBytes are the output-stream byte positions at the
	// cut (the prefix the original process had already written).
	EventBytes  int64
	ReportBytes int64
}

// InspectCheckpoint loads the checkpoint at path (falling back to the
// .prev generation when torn) and describes how it can be resumed.
func InspectCheckpoint(path string) (*ResumeInfo, error) {
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		return nil, err
	}
	spec, cur, err := decodeCheckpoint(f)
	if err != nil {
		return nil, err
	}
	return &ResumeInfo{
		Stream:         spec.Stream != nil,
		StateResumable: stats.StateSerializable(),
		EventBytes:     cur.EventBytes,
		ReportBytes:    cur.ReportBytes,
	}, nil
}

// imageSections encodes the direct state image of the live run: one
// section per layer, each a self-contained byte string. It is the only
// walk over the run's state — checkpoint writes it, and verifyImage
// re-encodes it to check a resume. Any layer that cannot be serialized
// (an untagged pending event, an RNG backend without stream state) fails
// the whole image. The section bytes live in d.enc and are valid until
// the next call: both callers are done with them by then (written to the
// file, or compared).
func (d *durable) imageSections() ([]snapshot.Section, error) {
	rs := d.rs
	var out []snapshot.Section
	add := func(id string, enc *snapshot.Enc) {
		out = append(out, snapshot.Section{ID: id, Data: enc.Data()})
	}
	next := func() *snapshot.Enc {
		if len(out) == len(d.enc) {
			d.enc = append(d.enc, snapshot.NewEnc())
		}
		enc := d.enc[len(out)]
		enc.Reset()
		return enc
	}

	enc := next()
	if err := rs.cluster.Eng.EncodePending(enc, d.watermark); err != nil {
		return nil, err
	}
	add(sectionImgEngine, enc)

	enc = next()
	if err := rs.cluster.NN.EncodeState(enc); err != nil {
		return nil, err
	}
	add(sectionImgDFS, enc)

	enc = next()
	if err := rs.tracker.EncodeState(enc); err != nil {
		return nil, err
	}
	add(sectionImgTracker, enc)

	enc = next()
	enc.Bool(rs.mgr != nil)
	if rs.mgr != nil {
		if err := rs.mgr.EncodeState(enc); err != nil {
			return nil, err
		}
	}
	enc.Bool(rs.scar != nil)
	if rs.scar != nil {
		if err := rs.scar.EncodeState(enc); err != nil {
			return nil, err
		}
	}
	add(sectionImgCore, enc)

	if d.stream != nil {
		enc = next()
		enc.Int(d.stream.nextWindow)
		if err := d.stream.src.EncodeState(enc); err != nil {
			return nil, err
		}
		add(sectionImgStream, enc)
	}

	enc = next()
	counts := rs.counter.Counts()
	enc.U32(uint32(len(counts)))
	for _, v := range counts {
		enc.U64(v)
	}
	add(sectionImgCounts, enc)
	return out, nil
}

// applyState performs the O(state) restore against the freshly
// reconstructed run: jump the engine to the cut, decode each layer's
// image, re-enqueue the pending-event set, then prove the decoded state
// re-encodes to the stored image before the run goes live.
func (d *durable) applyState() error {
	r := d.restore
	d.restore = nil
	rs := d.rs
	eng := rs.cluster.Eng
	cur := r.cursor

	// decode runs one layer's decoder over its image section, which it
	// must consume exactly.
	decode := func(id, what string, fn func(*snapshot.Dec) error) error {
		dec := snapshot.NewDec(mustSection(r.f, id))
		if err := fn(dec); err != nil {
			return fmt.Errorf("runner: restoring %s: %w", what, err)
		}
		if err := dec.Finish(); err != nil {
			return fmt.Errorf("runner: checkpoint section %q: %w", id, err)
		}
		return nil
	}

	eng.BeginRestore(cur.Now, cur.Seq, cur.Processed)
	if err := decode(sectionImgDFS, "DFS state", rs.cluster.NN.DecodeState); err != nil {
		return err
	}
	if err := decode(sectionImgTracker, "tracker state", rs.tracker.DecodeState); err != nil {
		return err
	}
	if err := decode(sectionImgCore, "policy state", func(dec *snapshot.Dec) error {
		if hasMgr := dec.Bool(); hasMgr != (rs.mgr != nil) {
			return fmt.Errorf("checkpoint image and rebuilt run disagree on the DARE manager (image %v, run %v)", hasMgr, rs.mgr != nil)
		}
		if rs.mgr != nil {
			if err := rs.mgr.DecodeState(dec); err != nil {
				return err
			}
		}
		if hasScar := dec.Bool(); hasScar != (rs.scar != nil) {
			return fmt.Errorf("checkpoint image and rebuilt run disagree on the Scarlett controller (image %v, run %v)", hasScar, rs.scar != nil)
		}
		if rs.scar != nil {
			return rs.scar.DecodeState(dec)
		}
		return nil
	}); err != nil {
		return err
	}
	if d.stream != nil {
		if err := decode(sectionImgStream, "stream generator", func(dec *snapshot.Dec) error {
			d.stream.nextWindow = dec.Int()
			return d.stream.src.DecodeState(dec)
		}); err != nil {
			return err
		}
	}
	if err := decode(sectionImgEngine, "pending events", func(dec *snapshot.Dec) error {
		return eng.DecodePending(dec, d.restoreEvent)
	}); err != nil {
		return err
	}
	eng.FinishRestore()

	var counts event.Counts
	if err := decode(sectionImgCounts, "event counts", func(dec *snapshot.Dec) error {
		if n := int(dec.U32()); n != len(counts) {
			return fmt.Errorf("checkpoint image counts %d event kinds, this build has %d", n, len(counts))
		}
		for i := range counts {
			counts[i] = dec.U64()
		}
		return nil
	}); err != nil {
		return err
	}
	rs.counter.RestoreCounts(counts)
	if rs.rec != nil {
		rs.rec.RestoreCounts(counts)
		if d.cw != nil {
			// Reconstruction-time events went to a throwaway sink (they are
			// the prefix the original process already wrote); arm the real
			// sink so only post-cut events reach it.
			rs.rec.RestoreSink(d.cw)
		}
	}

	if rows := d.verifyImage(r.f); len(rows) > 0 {
		return &DivergenceError{Rows: rows}
	}

	d.done = cur.Checkpoints
	eng.SetInterrupt(d.ck.Interrupt)
	d.nextStop = eng.Processed() + d.ck.every()
	return nil
}

// restoreEvent rebuilds one tagged pending event from its image record,
// dispatching on the layer that owns the kind range.
func (d *durable) restoreEvent(kind uint16, when sim.Time, seq uint64, payload *snapshot.Dec) error {
	eng := d.rs.cluster.Eng
	switch {
	case kind >= 1 && kind < 64:
		tag, fn, err := d.rs.tracker.DecodeEvent(kind, payload)
		if err != nil {
			return err
		}
		eng.RestoreEvent(when, seq, tag, fn)
	case kind >= 64 && kind < 80:
		var (
			tag core.EventTag
			fn  func()
			err error
		)
		switch {
		case d.rs.mgr != nil:
			tag, fn, err = d.rs.mgr.DecodeEvent(kind, payload)
		case d.rs.scar != nil:
			tag, fn, err = d.rs.scar.DecodeEvent(kind, payload)
		default:
			return fmt.Errorf("runner: checkpoint image holds a policy-layer event (kind %d) but the rebuilt run has no policy", kind)
		}
		if err != nil {
			return err
		}
		eng.RestoreEvent(when, seq, tag, fn)
	case kind == TagStreamWindow:
		if d.stream == nil {
			return fmt.Errorf("runner: checkpoint image holds a stream window event but the rebuilt run is batch")
		}
		eng.RestoreEvent(when, seq, streamWindowTag{}, d.stream.window)
	default:
		return fmt.Errorf("runner: checkpoint image holds an event with unknown tag kind %d", kind)
	}
	return nil
}

// ResumeWithMode is Resume with an explicit restore strategy. In state
// mode eventLog receives only the post-cut suffix of the event trace (the
// prefix is already in the original process's log file, which the CLI
// truncates to the cut instead of from zero); in replay mode it receives
// the complete trace from genesis, exactly like Resume.
func ResumeWithMode(path string, eventLog io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	return resume(path, eventLog, nil, ck, mode, false)
}

// ResumeStreamWithMode is ResumeStream with an explicit restore strategy;
// in state mode eventLog and report receive only the post-cut suffix of
// each stream. No pre-cut report lines are emitted in state mode (they
// fire only from window boundaries, which are all post-cut), so the
// report sink needs no throwaway phase.
func ResumeStreamWithMode(path string, eventLog, report io.Writer, ck CheckpointSpec, mode ResumeMode) (*Output, error) {
	return resume(path, eventLog, report, ck, mode, true)
}
