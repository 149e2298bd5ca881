package runner

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

// stateScenarios extends the crash-resume scenario set with a gray-failure
// run (degradation episodes long enough to span checkpoints, so slow and
// disk-slow factors are live state at a cut) and a failover run (master
// outages exercise the journal/blame state and the outage retry tags) —
// every family a state image must cover.
func stateScenarios() []durableScenario {
	return append(durableScenarios(), durableScenario{
		name: "gray-lfu-fair",
		opts: func() Options {
			return Options{
				Profile:   config.CCT(),
				Workload:  truncate(workload.WL2(23), 30),
				Scheduler: "fair",
				Policy:    PolicyFor(core.GreedyLFUPolicy),
				Seed:      23,
				Chaos:     &ChaosSpec{Events: 8, Horizon: 10, CrashWeight: -1, SlowWeight: 3, CorruptWeight: 1, FlapWeight: -1, SlowMean: 15, SlowFactorMax: 4},
			}
		},
	}, durableScenario{
		name: "failover-et-fifo",
		opts: func() Options {
			return Options{
				Profile:   config.CCT(),
				Workload:  truncate(workload.WL1(19), 35),
				Scheduler: "fifo",
				Policy:    PolicyFor(core.ElephantTrapPolicy),
				Seed:      19,
				MasterOutages: []MasterOutage{
					{At: 2, Down: 3, Mode: "journal"},
					{At: 9, Down: 2, Mode: "report"},
				},
			}
		},
	})
}

// crashForState runs opts checkpointed until the simulated crash at the
// second checkpoint and returns the dead process's partial event log.
func crashForState(t *testing.T, opts Options, path string) []byte {
	t.Helper()
	hook, crashErr := crashAfter(2)
	var partial bytes.Buffer
	opts.EventLog = &partial
	_, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook})
	if !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	return partial.Bytes()
}

// TestStateResumeDifferential is the tentpole contract for O(state)
// restore: a run killed at a checkpoint and state-resumed produces the
// byte-identical Output as the uninterrupted run, and the dead process's
// log prefix plus the resumed suffix reassembles the identical event
// trace — across plain, churn, chaos, and failover scenarios.
func TestStateResumeDifferential(t *testing.T) {
	for _, sc := range stateScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			wantOut, wantLog := runBaseline(t, sc.opts())

			path := filepath.Join(t.TempDir(), "run.ckpt")
			partial := crashForState(t, sc.opts(), path)
			info, err := InspectCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if !info.StateResumable || info.Stream {
				t.Fatalf("InspectCheckpoint: got %+v, want batch state-resumable", info)
			}
			if int64(len(partial)) < info.EventBytes {
				t.Fatalf("dead process's log holds %d bytes, cursor recorded %d", len(partial), info.EventBytes)
			}

			var suffix bytes.Buffer
			out, err := ResumeWithMode(path, &suffix, CheckpointSpec{Path: path, Every: 300}, ResumeState)
			if err != nil {
				t.Fatal(err)
			}
			if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
				t.Errorf("state-resumed output diverges from uninterrupted run\nresumed: %s\nwant:    %s", got, wantOut)
			}
			full := append(append([]byte(nil), partial[:info.EventBytes]...), suffix.Bytes()...)
			if !bytes.Equal(full, wantLog) {
				t.Errorf("prefix+suffix event trace diverges from uninterrupted run (%d vs %d bytes)", len(full), len(wantLog))
			}
		})
	}
}

// TestStateResumeMatchesReplayResume: the two restore strategies are
// interchangeable — resuming the same checkpoint in both modes yields the
// identical Output (the replay is the oracle the state image is judged
// against).
func TestStateResumeMatchesReplayResume(t *testing.T) {
	sc := durableScenarios()[1] // churn: RNG-heavy state
	path := filepath.Join(t.TempDir(), "run.ckpt")
	crashForState(t, sc.opts(), path)

	var replayLog bytes.Buffer
	replayOut, err := ResumeWithMode(path, &replayLog, CheckpointSpec{Path: path, Every: 300}, ResumeReplay)
	if err != nil {
		t.Fatal(err)
	}
	var stateSuffix bytes.Buffer
	stateOut, err := ResumeWithMode(path, &stateSuffix, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outputJSON(t, stateOut), outputJSON(t, replayOut); !bytes.Equal(got, want) {
		t.Errorf("state and replay resumes disagree\nstate:  %s\nreplay: %s", got, want)
	}
	// The replay log is the full trace; the state log is its suffix.
	if !bytes.HasSuffix(replayLog.Bytes(), stateSuffix.Bytes()) {
		t.Error("state-resume suffix is not a suffix of the replay-resume trace")
	}
}

// TestStateResumeStreamDifferential: the service-mode contract — killed
// and state-resumed, the spliced event trace AND report stream are
// byte-identical to the uninterrupted run's.
func TestStateResumeStreamDifferential(t *testing.T) {
	wantOut, wantLog, wantReport := runStreamBaseline(t)

	path := filepath.Join(t.TempDir(), "svc.ckpt")
	hook, crashErr := crashAfter(2)
	opts := streamOpts()
	var partialLog, partialReport bytes.Buffer
	opts.EventLog = &partialLog
	_, err := RunStream(opts, streamSpec(), &partialReport, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook})
	if !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.StateResumable || !info.Stream {
		t.Fatalf("InspectCheckpoint: got %+v, want stream state-resumable", info)
	}

	var logSuffix, reportSuffix bytes.Buffer
	out, err := ResumeStreamWithMode(path, &logSuffix, &reportSuffix, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
		t.Errorf("state-resumed stream output diverges\nresumed: %s\nwant:    %s", got, wantOut)
	}
	fullLog := append(append([]byte(nil), partialLog.Bytes()[:info.EventBytes]...), logSuffix.Bytes()...)
	if !bytes.Equal(fullLog, wantLog) {
		t.Errorf("spliced stream event trace diverges (%d vs %d bytes)", len(fullLog), len(wantLog))
	}
	fullReport := append(append([]byte(nil), partialReport.Bytes()[:info.ReportBytes]...), reportSuffix.Bytes()...)
	if !bytes.Equal(fullReport, wantReport) {
		t.Errorf("spliced stream report diverges (%d vs %d bytes)\nspliced: %s\nwant:    %s",
			len(fullReport), len(wantReport), fullReport, wantReport)
	}
}

// TestStrippedImageRejected: the state image is mandatory. A checkpoint
// without its img.* sections (what a build that wrote replay-only files
// left behind) is refused with ErrFormat naming the missing section, by
// InspectCheckpoint and by both resume modes — no silent downgrade.
func TestStrippedImageRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	crashForState(t, durableScenarios()[0].opts(), path)
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kept := f.Sections[:0]
	for _, s := range f.Sections {
		if !strings.HasPrefix(s.ID, "img.") {
			kept = append(kept, s)
		}
	}
	f.Sections = kept
	if err := snapshot.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	os.Remove(path + snapshot.PrevSuffix) // no good generation to fall back to

	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), sectionImgEngine) {
			t.Errorf("%s: got %v, want ErrFormat naming %q", what, err, sectionImgEngine)
		}
	}
	_, err = InspectCheckpoint(path)
	check("InspectCheckpoint", err)
	for _, mode := range []ResumeMode{ResumeState, ResumeReplay} {
		_, err = ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, mode)
		check(fmt.Sprintf("ResumeWithMode(%s)", mode), err)
	}
}

// TestStateImageIsComplete: no layer may keep state its image leaves out.
// For every scenario and every checkpoint generation k of an
// uninterrupted run, a state-resume of generation k must write a
// generation k+1 whose image is byte-identical to the uninterrupted
// run's — a field an encoder forgot would be lost at the restore and
// drift the resumed run away before the next checkpoint.
func TestStateImageIsComplete(t *testing.T) {
	stop := errors.New("stop after the next generation")
	for _, sc := range stateScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.ckpt")
			var gens [][]byte // gens[k-1] is the bytes of generation k
			_, err := RunCheckpointed(sc.opts(), CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: func(int) error {
				b, err := os.ReadFile(path)
				gens = append(gens, b)
				return err
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(gens) < 2 {
				t.Fatalf("run wrote %d checkpoints, need at least 2", len(gens))
			}
			for k := 1; k < len(gens); k++ {
				work := filepath.Join(dir, fmt.Sprintf("gen%d.ckpt", k))
				if err := os.WriteFile(work, gens[k-1], 0o644); err != nil {
					t.Fatal(err)
				}
				var next []byte
				_, err := ResumeWithMode(work, nil, CheckpointSpec{Path: work, Every: 300, AfterCheckpoint: func(n int) error {
					if n != k+1 {
						return fmt.Errorf("resumed run wrote generation %d, want %d", n, k+1)
					}
					b, err := os.ReadFile(work)
					if err != nil {
						return err
					}
					next = b
					return stop
				}}, ResumeState)
				if !errors.Is(err, stop) {
					t.Fatalf("generation %d: state resume: %v", k, err)
				}
				got, err := snapshot.Decode(bytes.NewReader(next))
				if err != nil {
					t.Fatal(err)
				}
				want, err := snapshot.Decode(bytes.NewReader(gens[k]))
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range imageSectionIDs(false) {
					g, _ := got.Section(id)
					w, _ := want.Section(id)
					if !bytes.Equal(g, w) {
						t.Errorf("generation %d resumed by state: its generation %d %s differs from the uninterrupted run's (%d vs %d bytes)", k, k+1, id, len(g), len(w))
					}
				}
			}
		})
	}
}

// TestStateResumeDetectsDivergence is the state-mode twin of
// TestResumeDetectsDivergence: with the spec's seed changed, the decoded
// image lands on a reconstruction whose genesis events (churn and chaos
// injections) fire at other times. Only the engine image's genesis
// (seq, when) references can see that; the resume must fail with a
// DivergenceError naming img.engine.
func TestStateResumeDetectsDivergence(t *testing.T) {
	for _, sc := range durableScenarios()[1:3] { // churn-lru-fair, chaos-et-fifo
		t.Run(sc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			crashForState(t, sc.opts(), path)
			bumpSpecSeed(t, path)
			_, err := ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, ResumeState)
			requireDivergence(t, err, sectionImgEngine)
		})
	}
}

// TestStateResumeTornImageFallsBack: a torn primary (SIGKILL mid-write)
// makes LoadFile fall back to the .prev generation, and state mode rides
// along — the previous generation's image restores the run.
func TestStateResumeTornImageFallsBack(t *testing.T) {
	sc := durableScenarios()[0]
	wantOut, _ := runBaseline(t, sc.opts())

	path := filepath.Join(t.TempDir(), "run.ckpt")
	hook, crashErr := crashAfter(3)
	opts := sc.opts()
	opts.EventLog = &bytes.Buffer{}
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: path, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputJSON(t, out); !bytes.Equal(got, wantOut) {
		t.Error("state resume from .prev generation diverges from uninterrupted run")
	}
}

// TestStateImageDetectsCorruption: flipping bytes inside an image section
// must surface as a typed error (decode failure or DivergenceError), never
// a silently wrong run. Complements FuzzStateRestore with a deterministic
// regression case.
func TestStateImageDetectsCorruption(t *testing.T) {
	sc := durableScenarios()[0]
	wantOut, _ := runBaseline(t, sc.opts())

	path := filepath.Join(t.TempDir(), "run.ckpt")
	crashForState(t, sc.opts(), path)
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Sections {
		if s.ID != sectionImgTracker {
			continue
		}
		for i := range s.Data {
			s.Data[i] ^= 0xA5
		}
	}
	if err := snapshot.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	os.Remove(path + snapshot.PrevSuffix)

	out, err := ResumeWithMode(path, &bytes.Buffer{}, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	if err == nil {
		if bytes.Equal(outputJSON(t, out), wantOut) {
			t.Skip("corruption happened to decode to the identical state")
		}
		t.Fatal("corrupted state image resumed without error to a different run")
	}
}

// FuzzStateRestore hammers the state-decode path with corrupted image
// sections: any mutation must either fail with an error or restore to the
// exact checkpointed state — never panic, never silently diverge past the
// re-encode check, which compares every section's bytes with the image.
func FuzzStateRestore(f *testing.F) {
	opts := Options{
		Profile:   config.CCT(),
		Workload:  truncate(workload.WL1(7), 12),
		Scheduler: "fifo",
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      7,
	}
	dir := f.TempDir()
	base := filepath.Join(dir, "fuzz.ckpt")
	hook, crashErr := crashAfter(1)
	// No event log: the checkpoint then records EventBytes 0, so the fuzz
	// resumes can pass a nil sink and still reach the decode path.
	if _, err := RunCheckpointed(opts, CheckpointSpec{Path: base, Every: 300, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		f.Fatalf("expected simulated crash, got %v", err)
	}
	ckf, _, err := snapshot.LoadFile(base)
	if err != nil {
		f.Fatal(err)
	}
	imgIdx := make([]int, 0, len(ckf.Sections))
	for i, s := range ckf.Sections {
		if strings.HasPrefix(s.ID, "img.") {
			imgIdx = append(imgIdx, i)
		}
	}
	if len(imgIdx) == 0 {
		f.Fatal("fuzz checkpoint has no image sections")
	}
	f.Add(0, 0, byte(0xFF))
	f.Add(1, 5, byte(0x01))
	f.Add(2, 100, byte(0x80))
	f.Add(3, 7, byte(0xA5))

	var runs int
	f.Fuzz(func(t *testing.T, section, offset int, flip byte) {
		if flip == 0 {
			return // no-op mutation: identical to the verified clean resume
		}
		idx := imgIdx[((section%len(imgIdx))+len(imgIdx))%len(imgIdx)]
		mut := &snapshot.File{Sections: make([]snapshot.Section, len(ckf.Sections))}
		copy(mut.Sections, ckf.Sections)
		data := append([]byte(nil), ckf.Sections[idx].Data...)
		if len(data) == 0 {
			return
		}
		pos := ((offset % len(data)) + len(data)) % len(data)
		data[pos] ^= flip
		mut.Sections[idx].Data = data

		runs++
		path := filepath.Join(dir, fmt.Sprintf("mut-%d.ckpt", runs))
		if err := snapshot.WriteFile(path, mut); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		defer os.Remove(path + snapshot.PrevSuffix)
		// Success is allowed only if the decode and the re-encode check
		// accepted the mutation; errors must be returned, not panicked.
		_, _ = ResumeWithMode(path, nil, CheckpointSpec{Path: path, Every: 300}, ResumeState)
	})
}
