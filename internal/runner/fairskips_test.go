package runner

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dare/internal/config"
	"dare/internal/core"
	"dare/internal/scheduler"
	"dare/internal/snapshot"
	"dare/internal/workload"
)

func fairSkipsOpts(skips int) Options {
	return Options{
		Profile:   config.CCT(),
		Workload:  truncate(workload.WL2(5), 20),
		Scheduler: "fair",
		FairSkips: skips,
		Policy:    PolicyFor(core.ElephantTrapPolicy),
		Seed:      5,
	}
}

// TestNegativeFairSkipsRejected: a negative delay-scheduling patience is
// an input error on every way into a run, never a silent fall-back to
// the default; 0 keeps meaning the default.
func TestNegativeFairSkipsRejected(t *testing.T) {
	if _, err := Run(fairSkipsOpts(-3)); !errors.Is(err, ErrNegativeFairSkips) {
		t.Fatalf("Run with FairSkips -3: got %v, want ErrNegativeFairSkips", err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := RunCheckpointed(fairSkipsOpts(-3), CheckpointSpec{Path: path, Every: 200}); !errors.Is(err, ErrNegativeFairSkips) {
		t.Fatalf("RunCheckpointed with FairSkips -3: got %v, want ErrNegativeFairSkips", err)
	}

	def, err := Run(fairSkipsOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(fairSkipsOpts(scheduler.DefaultMaxSkips))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outputJSON(t, def), outputJSON(t, explicit)) {
		t.Fatal("FairSkips 0 no longer runs with the default patience")
	}

	// Resume path: a checkpoint whose RunSpec carries a negative
	// fairSkips is rejected in both resume modes.
	hook, crashErr := crashAfter(1)
	if _, err := RunCheckpointed(fairSkipsOpts(3), CheckpointSpec{Path: path, Every: 200, AfterCheckpoint: hook}); !errors.Is(err, crashErr) {
		t.Fatalf("expected simulated crash, got %v", err)
	}
	f, _, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.Sections {
		if s.ID != sectionSpec {
			continue
		}
		spec, err := decodeSpec(s.Data)
		if err != nil {
			t.Fatal(err)
		}
		spec.FairSkips = -3
		if f.Sections[i].Data, err = encodeSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapshot.WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	os.Remove(path + snapshot.PrevSuffix)
	for _, mode := range []ResumeMode{ResumeReplay, ResumeState} {
		if _, err := ResumeWithMode(path, nil, CheckpointSpec{Path: path, Every: 200}, mode); !errors.Is(err, ErrNegativeFairSkips) {
			t.Fatalf("resume (%s) of a spec with fairSkips -3: got %v, want ErrNegativeFairSkips", mode, err)
		}
	}
}
