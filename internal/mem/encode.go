package mem

// Binary serialization of the memory-hierarchy snapshot halves of a
// machine checkpoint, for the prep-artifact cache. Snapshots are
// encoded in stream order against their predecessor: a cache block
// shared with the previous snapshot is a one-byte reference, the shared
// zero block another, and only the remaining blocks are written out,
// their byte arrays through binio's zero-run encoding. Memory pages are
// stored sparsely (only allocated pages, in ascending page order — the
// canonical order content addressing requires). Decoding re-aliases
// blocks and pages shared with the previous snapshot, so a decoded
// stream is as compact in memory as a recorded one. Both encodings are
// bit-complete with respect to the strict Equal comparisons in
// snapshot.go.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"sevsim/internal/binio"
)

// Block kinds in an encoded cache snapshot.
const (
	blockLiteral uint8 = iota // the block's lines follow
	blockShared               // the previous snapshot's block
	blockZero                 // the shared all-zero block
)

// EncodeTo appends the cache snapshot's complete state to w. prev is
// the previous snapshot of the same cache in the stream being encoded,
// or nil for the first.
func (s *CacheState) EncodeTo(w *binio.Writer, prev *CacheState) {
	w.Uvarint(uint64(s.lines))
	w.Uvarint(uint64(s.lineSize))
	w.U64(s.Clock)
	w.U64(s.Stats.Hits)
	w.U64(s.Stats.Misses)
	w.U64(s.Stats.Writebacks)
	w.U64(s.Stats.Evictions)
	for b, blk := range s.blocks {
		switch {
		case prev != nil && prev.blocks[b] == blk:
			w.U8(blockShared)
		case blk == zeroBlock(len(blk.tags), s.lineSize):
			w.U8(blockZero)
		default:
			w.U8(blockLiteral)
			for _, v := range blk.tags {
				w.U64(v)
			}
			for _, v := range blk.lru {
				w.U64(v)
			}
			w.RLE(blk.valid)
			w.RLE(blk.dirty)
			w.RLE(blk.data)
		}
	}
}

// DecodeCacheState reads one CacheState written by EncodeTo, with prev
// the state decoded just before it from the same stream (nil for the
// first). The geometry must match cfg, and every literal block is read
// at the size the geometry fixes, so a damaged input is rejected before
// it can size an allocation.
func DecodeCacheState(r *binio.Reader, cfg CacheConfig, prev *CacheState) (*CacheState, error) {
	lines := 0
	if cfg.Ways > 0 && cfg.LineSize > 0 {
		// Mirror NewCache's geometry derivation exactly.
		lines = cfg.Size / (cfg.Ways * cfg.LineSize) * cfg.Ways
	}
	gotLines, gotLineSize := r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if gotLines != uint64(lines) || gotLineSize != uint64(cfg.LineSize) {
		return nil, fmt.Errorf("mem: decode: cache geometry %d lines of %d bytes does not match config (want %d of %d)",
			gotLines, gotLineSize, lines, cfg.LineSize)
	}
	s := newCacheState(lines, cfg.LineSize)
	s.Clock = r.U64()
	s.Stats.Hits = r.U64()
	s.Stats.Misses = r.U64()
	s.Stats.Writebacks = r.U64()
	s.Stats.Evictions = r.U64()
	ls := s.lineSize
	for b := range s.blocks {
		lo, hi := s.span(b)
		n := hi - lo
		kind := r.U8()
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch kind {
		case blockShared:
			if prev == nil {
				r.Fail(errors.New("mem: decode: shared block reference in a stream's first snapshot"))
				break
			}
			s.blocks[b] = prev.blocks[b]
		case blockZero:
			s.blocks[b] = zeroBlock(n, ls)
		case blockLiteral:
			// The fixed-width tag and LRU arrays alone need 16 bytes a
			// line; check them against the input before allocating.
			if r.Len() < 16*n {
				r.Fail(fmt.Errorf("mem: decode: block %d truncated", b))
				break
			}
			blk := newCacheBlock(n, ls)
			for i := range blk.tags {
				blk.tags[i] = r.U64()
			}
			for i := range blk.lru {
				blk.lru[i] = r.U64()
			}
			blk.valid = r.RLEInto(blk.valid, n)
			blk.dirty = r.RLEInto(blk.dirty, n)
			blk.data = r.RLEInto(blk.data, n*ls)
			s.blocks[b] = blk
		default:
			r.Fail(fmt.Errorf("mem: decode: block %d has unknown kind %d", b, kind))
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// EncodeTo appends the memory snapshot to w: allocated pages only, in
// ascending page order, each zero-run compressed.
func (s *MemoryState) EncodeTo(w *binio.Writer) {
	keys := make([]uint64, 0, len(s.pages))
	for k := range s.pages { //lint:ordered keys are sorted below before any byte is emitted
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.RLE(s.pages[k][:])
	}
}

// DecodeMemoryState reads one MemoryState written by EncodeTo, with
// prev the state decoded just before it from the same stream (nil for
// the first). A page byte-equal to prev's page at the same address
// aliases it, as the live recording did; other pages are freshly
// allocated. Either way the snapshot is immediately shareable
// copy-on-write like any live-taken snapshot.
func DecodeMemoryState(r *binio.Reader, prev *MemoryState) (*MemoryState, error) {
	n := int(r.Uvarint())
	// Each non-empty page costs at least the key plus one run pair.
	if n < 0 || n > r.Len()/10+1 {
		r.Fail(fmt.Errorf("mem: decode: page count %d exceeds remaining input", n))
		return nil, r.Err()
	}
	s := &MemoryState{pages: make(map[uint64]*[PageSize]byte, n)}
	var scratch []byte
	for i := 0; i < n; i++ {
		k := r.U64()
		scratch = r.RLEInto(scratch, PageSize)
		if r.Err() != nil {
			break
		}
		if _, dup := s.pages[k]; dup {
			r.Fail(fmt.Errorf("mem: decode: duplicate page %#x", k))
			break
		}
		if prev != nil {
			if p := prev.pages[k]; p != nil && bytes.Equal(p[:], scratch) {
				s.pages[k] = p
				continue
			}
		}
		page := new([PageSize]byte)
		copy(page[:], scratch)
		s.pages[k] = page
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
