package checkpoint

// Binary serialization of a checkpoint stream for the prep-artifact
// cache. Each snapshot is encoded against the one before it, so the
// cache blocks a recording shares between consecutive checkpoints cost
// one byte each. A decoded stream is functionally identical to one
// produced by Record: the snapshots are in ascending cycle order, share
// cache blocks and memory pages with their predecessor exactly where
// the recording did, and the convergence watches are rebuilt from the
// decoded snapshots the way Record builds them from live ones — a
// watch is just a closure over its snapshot.

import (
	"fmt"

	"sevsim/internal/binio"
	"sevsim/internal/machine"
)

// EncodeTo appends the stream's checkpoints to w. Watches carry no
// state of their own (each is a closure over its snapshot), so only
// the snapshots are serialized.
func (s *Stream) EncodeTo(w *binio.Writer) {
	w.Uvarint(uint64(len(s.snaps)))
	var prev *machine.Snap
	for _, sn := range s.snaps {
		sn.EncodeTo(w, prev)
		prev = sn
	}
}

// DecodeStream reads a stream written by EncodeTo, validating each
// snapshot against cfg and rebuilding the convergence watches. The
// caller owns the stream and must Release it.
func DecodeStream(r *binio.Reader, cfg machine.Config) (*Stream, error) {
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A serialized snapshot is far larger than this floor; the bound
	// only rejects a nonsensical count before allocation.
	if n < 0 || n > r.Len()/16+1 {
		r.Fail(fmt.Errorf("checkpoint: decode: snapshot count %d exceeds remaining input", n))
		return nil, r.Err()
	}
	s := &Stream{
		snaps:   make([]*machine.Snap, 0, n),
		watches: make([]machine.Watch, 0, n),
	}
	var prev *machine.Snap
	for i := 0; i < n; i++ {
		sn, err := machine.DecodeSnap(r, cfg, prev)
		if err != nil {
			s.Release()
			return nil, err
		}
		if prev != nil && sn.Cycle <= prev.Cycle {
			sn.Release()
			s.Release()
			return nil, fmt.Errorf("checkpoint: decode: snapshot cycles not ascending (%d after %d)", sn.Cycle, prev.Cycle)
		}
		prev = sn
		s.snaps = append(s.snaps, sn)
		s.watches = append(s.watches, machine.Watch{
			At: sn.Cycle,
			Fn: func(live *machine.Machine) bool { return live.Converged(sn) },
		})
	}
	return s, nil
}
