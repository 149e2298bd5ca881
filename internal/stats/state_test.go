package stats

import (
	"bytes"
	"testing"

	"dare/internal/snapshot"
)

func encodeRNG(t *testing.T, g *RNG) []byte {
	t.Helper()
	e := snapshot.NewEnc()
	if err := g.EncodeState(e); err != nil {
		t.Fatal(err)
	}
	return e.Data()
}

func decodeRNG(t *testing.T, img []byte) *RNG {
	t.Helper()
	g := NewRNG(1)
	if err := g.DecodeState(snapshot.NewDec(img)); err != nil {
		t.Fatal(err)
	}
	return g
}

// sameContinuation fails unless a and b serve identical draws of every
// kind from here on and end at the same position.
func sameContinuation(t *testing.T, a, b *RNG) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if a.Float64() != b.Float64() || a.Intn(1000) != b.Intn(1000) ||
			a.NormFloat64() != b.NormFloat64() || a.Bool(0.4) != b.Bool(0.4) {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	if a.Draws() != b.Draws() || a.Seed() != b.Seed() {
		t.Fatalf("position (seed %d, draws %d) vs (seed %d, draws %d)", a.Seed(), a.Draws(), b.Seed(), b.Draws())
	}
}

// TestRNGStateBoolEdgesOnly covers the stream a lazy generator exposes:
// drawn only through Bool(p<=0) / Bool(p>=1), it has counted draws but has
// never seeded its generator. It must still encode the full image,
// byte-identical to an eagerly seeded stream's, and continue identically
// after a decode.
func TestRNGStateBoolEdgesOnly(t *testing.T) {
	if !StateSerializable() {
		t.Skip("rng state images unsupported on this runtime")
	}
	const seed = 0xE0CE
	lazy := NewRNG(seed)
	lazy.Bool(0)
	lazy.Bool(-1)
	lazy.Bool(1)
	if lazy.r != nil {
		t.Fatal("Bool at the edges seeded the generator")
	}
	eager := NewRNG(seed)
	eager.src()
	eager.draws = lazy.draws

	img := encodeRNG(t, lazy)
	if want := encodeRNG(t, eager); !bytes.Equal(img, want) {
		t.Fatal("image of an edge-only stream differs from the eagerly seeded encoding")
	}
	if form := img[16]; form != rngImageFull {
		t.Fatalf("image form %d, want full (%d)", form, rngImageFull)
	}
	if want := 8 + 8 + 1 + 8*(2+rngVecLen+2); len(img) != want {
		t.Fatalf("image is %d bytes, want %d", len(img), want)
	}
	sameContinuation(t, decodeRNG(t, img), lazy)
}

// TestRNGStateRoundTrip covers the other two image shapes: an untouched
// stream (fresh form, nothing seeded on either side) and a used one.
func TestRNGStateRoundTrip(t *testing.T) {
	if !StateSerializable() {
		t.Skip("rng state images unsupported on this runtime")
	}
	fresh := NewRNG(3).Split(9)
	img := encodeRNG(t, fresh)
	if form := img[16]; form != rngImageFresh || len(img) != 17 {
		t.Fatalf("untouched stream: form %d, %d bytes; want fresh, 17", form, len(img))
	}
	back := decodeRNG(t, img)
	if back.r != nil {
		t.Fatal("decoding a fresh image seeded the generator")
	}
	sameContinuation(t, back, fresh)

	used := NewRNG(4)
	for i := 0; i < 50; i++ {
		used.Float64()
		used.ExpFloat64()
		used.Bool(1)
	}
	sameContinuation(t, decodeRNG(t, encodeRNG(t, used)), used)
}

// TestRNGSplitAllocatesOnce pins lazy construction: a split records its
// seed and nothing else, so a cluster's per-node streams cost one small
// allocation each until drawn from.
func TestRNGSplitAllocatesOnce(t *testing.T) {
	root := NewRNG(11)
	var sink *RNG
	label := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		label++
		sink = root.Split(label)
	})
	if allocs > 1 {
		t.Fatalf("Split allocates %.1f times, want at most 1", allocs)
	}
	if sink.r != nil {
		t.Fatal("Split seeded the generator")
	}
}
