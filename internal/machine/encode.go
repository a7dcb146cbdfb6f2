package machine

// Binary serialization of full-machine checkpoints (Snap) for the
// prep-artifact cache: a warm cache hit reconstructs a checkpoint
// stream from bytes instead of re-simulating the golden run. Snaps are
// encoded against their predecessor in the stream, so cache blocks and
// memory pages shared with it are shared again after decoding. Decoding
// draws the core state from its pool, exactly like a live Snapshot, so
// cached and recorded checkpoints obey the same ownership and Release
// rules.

import (
	"fmt"

	"sevsim/internal/binio"
	"sevsim/internal/cpu"
	"sevsim/internal/mem"
)

// EncodeTo appends the snapshot's complete state to w. prev is the
// snapshot before it in the stream being encoded, or nil for the first.
func (s *Snap) EncodeTo(w *binio.Writer, prev *Snap) {
	if prev == nil {
		prev = &Snap{} // no predecessor: every component is written in full
	}
	w.U64(s.Cycle)
	w.U64(s.Hash)
	s.Core.EncodeTo(w)
	s.L1I.EncodeTo(w, prev.L1I)
	s.L1D.EncodeTo(w, prev.L1D)
	s.L2.EncodeTo(w, prev.L2)
	s.Mem.EncodeTo(w)
}

// EncodeTo appends the run result to w; a cached golden result lets a
// warm prep skip the golden simulation.
func (res *Result) EncodeTo(w *binio.Writer) {
	w.U8(uint8(res.Outcome))
	w.String(res.Reason)
	w.U64(res.Cycles)
	w.U64s(res.Output)
	res.Stats.EncodeTo(w)
	for _, cs := range []mem.CacheStats{res.L1I, res.L1D, res.L2} {
		w.U64(cs.Hits)
		w.U64(cs.Misses)
		w.U64(cs.Writebacks)
		w.U64(cs.Evictions)
	}
	w.Bool(res.Unexpected)
}

// DecodeResult reads a result written by Result.EncodeTo.
func DecodeResult(r *binio.Reader) (Result, error) {
	var res Result
	o := r.U8()
	if o > uint8(OutcomeAssert) {
		r.Fail(fmt.Errorf("machine: decode result: outcome %d out of range", o))
		return Result{}, r.Err()
	}
	res.Outcome = Outcome(o)
	res.Reason = r.String()
	res.Cycles = r.U64()
	res.Output = r.U64sInto(nil)
	res.Stats.DecodeFrom(r)
	for _, cs := range []*mem.CacheStats{&res.L1I, &res.L1D, &res.L2} {
		cs.Hits = r.U64()
		cs.Misses = r.U64()
		cs.Writebacks = r.U64()
		cs.Evictions = r.U64()
	}
	res.Unexpected = r.Bool()
	if err := r.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// DecodeSnap reads one Snap written by EncodeTo, validating every
// component against cfg — the machine configuration the snapshot was
// captured under. prev is the snap decoded just before it from the same
// stream, or nil for the first. The caller owns the result and must
// Release it.
func DecodeSnap(r *binio.Reader, cfg Config, prev *Snap) (*Snap, error) {
	if prev == nil {
		prev = &Snap{}
	}
	s := &Snap{}
	s.Cycle = r.U64()
	s.Hash = r.U64()
	var err error
	if s.Core, err = cpu.DecodeCoreState(r, &cfg.CPU); err != nil {
		return nil, fmt.Errorf("machine: decode snap core: %w", err)
	}
	for _, c := range []struct {
		name string
		dst  **mem.CacheState
		cfg  mem.CacheConfig
		prev *mem.CacheState
	}{
		{"L1I", &s.L1I, cfg.L1I, prev.L1I},
		{"L1D", &s.L1D, cfg.L1D, prev.L1D},
		{"L2", &s.L2, cfg.L2, prev.L2},
	} {
		if *c.dst, err = mem.DecodeCacheState(r, c.cfg, c.prev); err != nil {
			s.Release()
			return nil, fmt.Errorf("machine: decode snap %s: %w", c.name, err)
		}
	}
	if s.Mem, err = mem.DecodeMemoryState(r, prev.Mem); err != nil {
		s.Release()
		return nil, fmt.Errorf("machine: decode snap memory: %w", err)
	}
	return s, nil
}
