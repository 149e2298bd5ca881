package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"unsafe"

	"dare/internal/snapshot"
)

// This file gives RNG a direct state image for O(state) checkpoint
// restore. The draws counter alone is not enough to reposition a stream:
// Bool short-circuits p<=0 / p>=1 after counting the draw without
// consuming the underlying generator, so draws and the source position can
// legitimately differ. The image therefore carries both the (seed, draws)
// coordinate and the raw math/rand generator internals (the additive
// lagged-Fibonacci state: tap, feed, vec[607], plus Rand's Read cache).
//
// Those internals are unexported, so they are reached with reflect +
// unsafe. That is deliberately defensive: an init-time self-test proves
// the technique works on the running toolchain, and StateSerializable
// gates the whole state-mode resume path — an unsupported runtime falls
// back to replay-from-genesis rather than silently mis-restoring.

// rngVecLen is math/rand's additive-generator state length (rngLen).
const rngVecLen = 607

// rngStateCapable reports whether the init self-test validated direct
// source serialization on this toolchain.
var rngStateCapable = rngStateSelfTest()

// StateSerializable reports whether RNG state images work on this
// runtime. When false, EncodeState returns an error and callers must
// resume by replay instead.
func StateSerializable() bool { return rngStateCapable }

// srcFields locates the addressable reflect.Values of the generator
// internals behind r: the rngSource struct and Rand's readVal/readPos
// Read-cache fields.
func srcFields(r *rand.Rand) (src, readVal, readPos reflect.Value, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("stats: rng source access panicked: %v", p)
		}
	}()
	rv := reflect.ValueOf(r).Elem()
	f := rv.FieldByName("src")
	if !f.IsValid() {
		return src, readVal, readPos, fmt.Errorf("stats: rand.Rand has no src field")
	}
	// The field is unexported; rebuild an addressable, writable view of it.
	f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	sv := reflect.ValueOf(f.Interface())
	if sv.Kind() != reflect.Pointer || sv.IsNil() || sv.Elem().Kind() != reflect.Struct {
		return src, readVal, readPos, fmt.Errorf("stats: rand source is not a struct pointer")
	}
	src = sv.Elem()
	tap, feed, vec := src.FieldByName("tap"), src.FieldByName("feed"), src.FieldByName("vec")
	if !tap.IsValid() || !feed.IsValid() || !vec.IsValid() ||
		vec.Kind() != reflect.Array || vec.Len() != rngVecLen {
		return src, readVal, readPos, fmt.Errorf("stats: rand source shape unexpected")
	}
	readVal = rv.FieldByName("readVal")
	readPos = rv.FieldByName("readPos")
	if !readVal.IsValid() || !readPos.IsValid() {
		return src, readVal, readPos, fmt.Errorf("stats: rand.Rand read-cache fields missing")
	}
	return src, readVal, readPos, nil
}

// setUnexported writes v into an unexported but addressable struct field.
func setUnexported(f reflect.Value, v int64) {
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetInt(v)
}

// readUnexported reads an unexported struct field as int64.
func readUnexported(f reflect.Value) int64 {
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Int()
}

// Image forms: a fresh stream (zero draws, source untouched) needs only
// its seed; a used one carries the full generator state.
const (
	rngImageFresh = 0
	rngImageFull  = 1
)

// EncodeState appends the stream's full state image.
func (g *RNG) EncodeState(e *snapshot.Enc) error {
	e.U64(g.seed)
	e.U64(g.draws)
	if g.draws == 0 {
		// draws==0 implies the source was never advanced: rebuildable
		// from the seed alone, saving ~5 KiB per untouched stream.
		e.U8(rngImageFresh)
		return nil
	}
	if !rngStateCapable {
		return fmt.Errorf("stats: rng state images unsupported on this runtime")
	}
	e.U8(rngImageFull)
	// src() seeds a stream drawn only through Bool(p<=0) / Bool(p>=1)
	// (counted, never seeded), so its image carries the freshly seeded
	// generator, byte-identical to an eagerly seeded stream's.
	src, readVal, readPos, err := srcFields(g.src())
	if err != nil {
		return err
	}
	e.I64(readUnexported(src.FieldByName("tap")))
	e.I64(readUnexported(src.FieldByName("feed")))
	vec := src.FieldByName("vec")
	for i := 0; i < rngVecLen; i++ {
		e.I64(readUnexported(vec.Index(i)))
	}
	e.I64(readUnexported(readVal))
	e.I64(readUnexported(readPos))
	return nil
}

// DecodeState restores the stream from an image written by EncodeState,
// replacing g's seed, position, and generator internals.
func (g *RNG) DecodeState(d *snapshot.Dec) error {
	seed := d.U64()
	draws := d.U64()
	form := d.U8()
	if d.Err() != nil {
		return d.Err()
	}
	switch form {
	case rngImageFresh:
		// Rebuilt from the seed on its first draw, like any new stream.
		*g = RNG{seed: seed, draws: draws}
		return nil
	case rngImageFull:
		if !rngStateCapable {
			return fmt.Errorf("stats: rng state images unsupported on this runtime")
		}
		r := newRand(seed)
		src, readVal, readPos, err := srcFields(r)
		if err != nil {
			return err
		}
		setUnexported(src.FieldByName("tap"), d.I64())
		setUnexported(src.FieldByName("feed"), d.I64())
		vec := src.FieldByName("vec")
		for i := 0; i < rngVecLen; i++ {
			setUnexported(vec.Index(i), d.I64())
		}
		setUnexported(readVal, d.I64())
		setUnexported(readPos, d.I64())
		if d.Err() != nil {
			return d.Err()
		}
		*g = RNG{r: r, seed: seed, draws: draws}
		return nil
	default:
		return fmt.Errorf("stats: unknown rng image form %d", form)
	}
}

// rngStateSelfTest proves on this exact toolchain that a used stream
// round-trips through its state image and then produces the identical
// continuation across every draw kind the simulator uses.
func rngStateSelfTest() (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	a := NewRNG(0xD15EA5E)
	for i := 0; i < 7; i++ {
		a.Float64()
		a.NormFloat64()
		a.ExpFloat64()
		a.Intn(1000)
		a.Bool(0.5)
		a.Bool(-1) // counted but not consumed: draws and position diverge
		a.Bool(2)
	}
	// Encode a's state the same way EncodeState does, bypassing the
	// capability gate (which this test is computing).
	e := snapshot.NewEnc()
	e.U64(a.seed)
	e.U64(a.draws)
	e.U8(rngImageFull)
	src, readVal, readPos, err := srcFields(a.r)
	if err != nil {
		return false
	}
	e.I64(readUnexported(src.FieldByName("tap")))
	e.I64(readUnexported(src.FieldByName("feed")))
	vec := src.FieldByName("vec")
	for i := 0; i < rngVecLen; i++ {
		e.I64(readUnexported(vec.Index(i)))
	}
	e.I64(readUnexported(readVal))
	e.I64(readUnexported(readPos))

	b := NewRNG(1)
	d := snapshot.NewDec(e.Data())
	seed, draws, form := d.U64(), d.U64(), d.U8()
	if form != rngImageFull {
		return false
	}
	br := newRand(seed)
	bsrc, brv, brp, err := srcFields(br)
	if err != nil {
		return false
	}
	setUnexported(bsrc.FieldByName("tap"), d.I64())
	setUnexported(bsrc.FieldByName("feed"), d.I64())
	bvec := bsrc.FieldByName("vec")
	for i := 0; i < rngVecLen; i++ {
		setUnexported(bvec.Index(i), d.I64())
	}
	setUnexported(brv, d.I64())
	setUnexported(brp, d.I64())
	if d.Err() != nil {
		return false
	}
	*b = RNG{r: br, seed: seed, draws: draws}

	if a.draws != b.draws || a.seed != b.seed {
		return false
	}
	for i := 0; i < 64; i++ {
		if a.Float64() != b.Float64() || a.Int63() != b.Int63() ||
			a.NormFloat64() != b.NormFloat64() || a.Bool(0.3) != b.Bool(0.3) {
			return false
		}
	}
	return a.draws == b.draws
}
