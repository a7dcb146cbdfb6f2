package mem

// Snapshot and restore for the memory hierarchy, the cache/memory half
// of the machine checkpoints used by the injection engine. Both halves
// are copy-on-write, so K checkpoints of a golden run cost what changes
// between them, not K full copies of the caches and memory:
//
//   - A cache snapshot is a table of immutable blocks of blockLines
//     lines (tags, LRU stamps, valid and dirty bits, line data).
//     Snapshot aliases every block equal to the same block of the
//     cache's previous snapshot, and every all-zero block to one shared
//     zero block; only changed blocks are copied. The live cache keeps
//     its flat arrays, so accesses never go through the block table.
//   - A memory snapshot aliases the live page arrays; the live memory
//     clones a page on the first store after the snapshot.
//
// Neither half is pooled. Blocks and pages are shared by any number of
// snapshots and live exactly as long as one of them, so pointer
// identity between two snapshots' blocks is a sound "unchanged" test
// that restore, comparison and encoding all exploit.
//
// Restore is a delta against the snapshot the cache was last restored
// from: it copies back the lines touched since then (see
// Cache.markFull) plus every block in which the new snapshot and that
// base differ. Restoring the same checkpoint again — the shape of an
// injection campaign — copies only the touched lines; hopping to a
// neighboring checkpoint copies the few blocks that changed between
// them. Every path leaves the cache bit-identical to the snapshot.
//
// Like the core layer (internal/cpu/snapshot.go), each structure offers
// a strict Equal on the snapshot (bit-for-bit, for round-trip tests)
// and a behavioral StateEquals on the live structure (skips dead state,
// for the early-convergence Masked exit).

import (
	"bytes"
	"slices"
	"sync"

	"sevsim/internal/simerr"
)

// blockLines is the number of cache lines in one copy-on-write
// snapshot block. It is part of the checkpoint stream encoding.
const blockLines = 64

// cacheBlock holds the state of up to blockLines consecutive lines, in
// the live cache's struct-of-arrays layout. A block is immutable once
// built; snapshots share blocks by pointer.
type cacheBlock struct {
	tags  []uint64
	lru   []uint64
	valid []uint8
	dirty []uint8
	data  []byte // lines*lineSize bytes
}

// newCacheBlock allocates a zeroed block of n lines.
func newCacheBlock(n, lineSize int) *cacheBlock {
	words := make([]uint64, 2*n)
	b := make([]byte, 2*n+n*lineSize)
	return &cacheBlock{
		tags:  words[:n:n],
		lru:   words[n:],
		valid: b[:n:n],
		dirty: b[n : 2*n : 2*n],
		data:  b[2*n:],
	}
}

// line returns the data bytes of the block's i-th line.
func (b *cacheBlock) line(i, lineSize int) []byte {
	return b.data[i*lineSize : (i+1)*lineSize]
}

// lineEquals is the behavioral comparison of line i of two blocks:
// invalid lines compare only the valid bit (the rest is dead state, see
// Cache.StateEquals), valid lines in full.
func (b *cacheBlock) lineEquals(o *cacheBlock, i, lineSize int) bool {
	if b.valid[i] != o.valid[i] {
		return false
	}
	if b.valid[i] == 0 {
		return true
	}
	return b.tags[i] == o.tags[i] && b.dirty[i] == o.dirty[i] && b.lru[i] == o.lru[i] &&
		bytes.Equal(b.line(i, lineSize), o.line(i, lineSize))
}

// equal is the strict comparison of two blocks of the same shape.
func (b *cacheBlock) equal(o *cacheBlock) bool {
	return slices.Equal(b.tags, o.tags) && slices.Equal(b.lru, o.lru) &&
		bytes.Equal(b.valid, o.valid) && bytes.Equal(b.dirty, o.dirty) &&
		bytes.Equal(b.data, o.data)
}

// blockShape keys the shared zero blocks.
type blockShape struct{ lines, lineSize int }

// zeroBlocks holds one shared all-zero block per block shape, filled
// on first use. The blocks are immutable, so every cache and goroutine
// may share them.
var zeroBlocks sync.Map // blockShape → *cacheBlock

// zeroBlock returns the shared all-zero block of n lines.
func zeroBlock(n, lineSize int) *cacheBlock {
	k := blockShape{n, lineSize}
	if b, ok := zeroBlocks.Load(k); ok {
		return b.(*cacheBlock)
	}
	b, _ := zeroBlocks.LoadOrStore(k, newCacheBlock(n, lineSize))
	return b.(*cacheBlock)
}

// CacheState is a point-in-time copy of one cache's authoritative
// arrays plus the LRU clock and event counters. It is immutable and
// shares no mutable memory with any cache, so it may be restored
// concurrently into many caches.
type CacheState struct {
	Clock uint64
	Stats CacheStats

	lines    int
	lineSize int
	blocks   []*cacheBlock // block b holds lines [b*blockLines, min((b+1)*blockLines, lines))
}

// span returns the line range of block b.
func (s *CacheState) span(b int) (lo, hi int) {
	lo = b * blockLines
	return lo, min(lo+blockLines, s.lines)
}

// blockOf returns the block holding line and the line's index in it.
func (s *CacheState) blockOf(line int) (*cacheBlock, int) {
	return s.blocks[line/blockLines], line % blockLines
}

// newCacheState returns a state with an empty block table for the
// given geometry.
func newCacheState(lines, lineSize int) *CacheState {
	return &CacheState{lines: lines, lineSize: lineSize,
		blocks: make([]*cacheBlock, (lines+blockLines-1)/blockLines)}
}

// BlockStats describes how a sequence of snapshots of one cache shares
// its blocks: slots is the total number of block slots, distinct the
// number of distinct blocks behind them, and missed the number of slots
// whose block equals the same slot of the preceding snapshot in
// content but is not shared with it. Snapshot keeps missed at zero.
func BlockStats(states []*CacheState) (slots, distinct, missed int) {
	seen := map[*cacheBlock]bool{}
	for i, s := range states {
		for b, blk := range s.blocks {
			slots++
			if !seen[blk] {
				seen[blk] = true
				distinct++
			}
			if i > 0 {
				if pb := states[i-1].blocks[b]; pb != blk && pb.equal(blk) {
					missed++
				}
			}
		}
	}
	return slots, distinct, missed
}

// blockEquals reports whether the live lines [lo, hi) equal blk
// bit-for-bit.
func (c *Cache) blockEquals(blk *cacheBlock, lo, hi int) bool {
	ls := c.cfg.LineSize
	return bytes.Equal(c.valid[lo:hi], blk.valid) && bytes.Equal(c.dirty[lo:hi], blk.dirty) &&
		slices.Equal(c.tags[lo:hi], blk.tags) && slices.Equal(c.lru[lo:hi], blk.lru) &&
		bytes.Equal(c.data[lo*ls:hi*ls], blk.data)
}

// Snapshot captures the cache's complete state. Each block is shared
// with the cache's previous snapshot when unchanged since then, shared
// with the zero block when all-zero, and copied otherwise.
func (c *Cache) Snapshot() *CacheState {
	ls := c.cfg.LineSize
	s := newCacheState(len(c.tags), ls)
	s.Clock = c.clock
	s.Stats = c.Stats
	for b := range s.blocks {
		lo, hi := s.span(b)
		if c.prev != nil && c.blockEquals(c.prev.blocks[b], lo, hi) {
			s.blocks[b] = c.prev.blocks[b]
			continue
		}
		if z := zeroBlock(hi-lo, ls); c.blockEquals(z, lo, hi) {
			s.blocks[b] = z
			continue
		}
		blk := newCacheBlock(hi-lo, ls)
		copy(blk.tags, c.tags[lo:hi])
		copy(blk.lru, c.lru[lo:hi])
		copy(blk.valid, c.valid[lo:hi])
		copy(blk.dirty, c.dirty[lo:hi])
		copy(blk.data, c.data[lo*ls:hi*ls])
		s.blocks[b] = blk
	}
	c.prev = s
	return s
}

// restoreLine copies one line's full state back from the snapshot.
func (c *Cache) restoreLine(s *CacheState, line int) {
	blk, i := s.blockOf(line)
	c.tags[line] = blk.tags[i]
	c.lru[line] = blk.lru[i]
	c.valid[line] = blk.valid[i]
	c.dirty[line] = blk.dirty[i]
	copy(c.data[line*s.lineSize:(line+1)*s.lineSize], blk.line(i, s.lineSize))
}

// Restore overwrites the cache's state with the snapshot's, reusing the
// cache's existing backing arrays. Outside the lines touched since the
// last restore the cache still equals that restore's snapshot (the
// base), so only the touched lines and the blocks where the snapshot
// and the base differ are copied; a cache never restored before copies
// every block. Every path leaves the cache bit-identical to the
// snapshot — the delta is a pure optimization.
func (c *Cache) Restore(s *CacheState) {
	if s.lines != len(c.tags) || s.lines*s.lineSize != len(c.data) {
		simerr.Assertf("mem: cache restore from a differently configured cache snapshot: %d lines / %d data bytes, cache has %d / %d",
			s.lines, s.lines*s.lineSize, len(c.tags), len(c.data))
	}
	c.clock = s.Clock
	c.Stats = s.Stats
	base := c.lastRestore
	for b, blk := range s.blocks {
		if base != nil && base.blocks[b] == blk {
			continue
		}
		lo, hi := s.span(b)
		copy(c.tags[lo:hi], blk.tags)
		copy(c.lru[lo:hi], blk.lru)
		copy(c.valid[lo:hi], blk.valid)
		copy(c.dirty[lo:hi], blk.dirty)
		copy(c.data[lo*s.lineSize:hi*s.lineSize], blk.data)
	}
	for _, line := range c.touched {
		if c.touchedMark[line] == markLine {
			c.restoreLine(s, int(line))
		} else {
			// Read hit: only the LRU stamp moved.
			blk, i := s.blockOf(int(line))
			c.lru[line] = blk.lru[i]
		}
		c.touchedMark[line] = markClean
	}
	c.touched = c.touched[:0]
	if base != s {
		c.lastRestore = s
		c.diffs = c.diffs[:0]
	}
}

// Clock returns the LRU clock, the cheap per-cache component of the
// machine-level convergence prefilter hash. The clock advances on every
// access, so two executions that touched the caches differently almost
// always disagree on it; it is part of the StateEquals relation (LRU
// state steers future victim selection), which keeps the hash a sound
// subset of the exact comparison.
func (c *Cache) Clock() uint64 { return c.clock }

// StateEquals reports whether the cache's behavioral state equals the
// snapshot's. Invalid lines compare only their valid bit: fill
// overwrites tag, dirty, and the whole data range before the line can
// be observed, and touch assigns the line a fresh LRU stamp before the
// next victim scan can read it, so everything but the valid bit of an
// invalid line is dead state. Valid lines compare in full, and so does
// the LRU clock (it steers future victim selection). Stats are
// excluded: they never feed back into execution or classification, and
// a behaviorally converged run may carry different event counts from
// its pre-convergence excursion. A bit-identical block is sufficient,
// so the per-line dead-state walk only runs inside blocks where some
// byte differs.
func (c *Cache) StateEquals(s *CacheState) bool {
	if c.clock != s.Clock || s.lines != len(c.tags) || s.lines*s.lineSize != len(c.data) {
		return false
	}
	if c.lastRestore != nil {
		// Delta path: outside the touched set the live cache is
		// bit-identical to its restore base, so it can differ from s
		// only where the base does (the memoized diff) or where it was
		// touched since the restore. Equality therefore holds iff every
		// base/s difference was touched (untouched lines pin the live
		// cache to the base side of the difference) and every touched
		// line behaviorally matches s.
		for _, line := range c.diffFor(s) {
			if c.touchedMark[line] == markClean {
				return false
			}
		}
		for _, line := range c.touched {
			if !c.liveLineEquals(s, int(line)) {
				return false
			}
		}
		return true
	}
	for b, blk := range s.blocks {
		lo, hi := s.span(b)
		if c.blockEquals(blk, lo, hi) {
			continue
		}
		for line := lo; line < hi; line++ {
			if !c.liveLineEquals(s, line) {
				return false
			}
		}
	}
	return true
}

// liveLineEquals is the per-line behavioral comparison of the live
// cache against a snapshot: invalid lines compare only the valid bit
// (the rest is dead state, see StateEquals), valid lines in full.
func (c *Cache) liveLineEquals(s *CacheState, line int) bool {
	blk, i := s.blockOf(line)
	if c.valid[line] != blk.valid[i] {
		return false
	}
	if c.valid[line] == 0 {
		return true
	}
	if c.tags[line] != blk.tags[i] || c.dirty[line] != blk.dirty[i] || c.lru[line] != blk.lru[i] {
		return false
	}
	ls := s.lineSize
	return bytes.Equal(c.data[line*ls:(line+1)*ls], blk.line(i, ls))
}

// watchDiff records, for one convergence-watch snapshot, the lines
// where it behaviorally differs from the cache's delta-restore base.
type watchDiff struct {
	watch *CacheState
	lines []int32
}

// diffFor returns the behavioral line difference between the cache's
// delta-restore base snapshot and s, memoized per (base, s) pair. Both
// snapshots are immutable, so the memo stays valid until the base
// changes (Restore resets c.diffs); it therefore holds at most one
// entry per snapshot compared since that restore — in the engine, one
// per checkpoint of the cell. Blocks the two snapshots share are
// skipped without a compare. Only called from StateEquals' delta path,
// so the base is known valid and same-geometry.
func (c *Cache) diffFor(s *CacheState) []int32 {
	for i := range c.diffs {
		if c.diffs[i].watch == s {
			return c.diffs[i].lines
		}
	}
	base := c.lastRestore
	var lines []int32
	for b, blk := range s.blocks {
		bb := base.blocks[b]
		if bb == blk {
			continue
		}
		lo, hi := s.span(b)
		for i := 0; i < hi-lo; i++ {
			if !bb.lineEquals(blk, i, s.lineSize) {
				lines = append(lines, int32(lo+i))
			}
		}
	}
	c.diffs = append(c.diffs, watchDiff{watch: s, lines: lines})
	return lines
}

// Equal is the strict comparison of two cache snapshots, including dead
// state: every line bit, the clock, and the counters. Shared blocks are
// equal by identity; only distinct blocks are compared byte for byte.
func (s *CacheState) Equal(o *CacheState) bool {
	if s.Clock != o.Clock || s.Stats != o.Stats || s.lines != o.lines || s.lineSize != o.lineSize {
		return false
	}
	for b, blk := range s.blocks {
		if ob := o.blocks[b]; blk != ob && !blk.equal(ob) {
			return false
		}
	}
	return true
}

// MemoryState is a copy-on-write snapshot of physical memory: it
// aliases the live memory's page arrays at snapshot time. The arrays
// are immutable from then on — the live memory clones any aliased page
// before writing to it (writablePage) and Restore only copies pointers
// — so one snapshot can be shared read-only across concurrent workers.
// MemoryState is not pooled: its cost is the map, which Restore reuses
// on the live-memory side already, and pooling shared COW pages would
// need reference counting for no measured gain.
type MemoryState struct {
	pages map[uint64]*[PageSize]byte
}

// Snapshot captures memory as a COW snapshot. Cost is one map copy;
// page contents are shared with the live memory until it next writes.
func (m *Memory) Snapshot() *MemoryState {
	s := &MemoryState{pages: make(map[uint64]*[PageSize]byte, len(m.pages))}
	for k, p := range m.pages { //lint:ordered builds a map and marks a set; order cannot reach any result
		s.pages[k] = p
		m.shared[k] = struct{}{}
	}
	return s
}

// Restore points the memory at the snapshot's pages. Every restored
// page is marked shared, so the first post-restore store to it clones
// it and the snapshot stays intact for the next restore. The memory's
// existing maps are reused to avoid per-injection allocation.
func (m *Memory) Restore(s *MemoryState) {
	clear(m.pages)
	clear(m.shared)
	for k, p := range s.pages { //lint:ordered rebuilds a map and marks a set; order cannot reach any result
		m.pages[k] = p
		m.shared[k] = struct{}{}
	}
}

// StateEquals reports whether memory contents equal the snapshot's,
// with an absent page equivalent to an all-zero page (the only way
// either is observed). The common case after a checkpoint restore is
// that almost every live page still aliases the snapshot's array, so
// the pointer fast path skips nearly all byte comparison.
func (m *Memory) StateEquals(s *MemoryState) bool {
	for k, p := range m.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		sp := s.pages[k]
		if p == sp {
			continue
		}
		if !pageEqual(p, sp) {
			return false
		}
	}
	for k, sp := range s.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		if _, ok := m.pages[k]; ok {
			continue
		}
		if !pageEqual(nil, sp) {
			return false
		}
	}
	return true
}

// Equal is the strict comparison of two memory snapshots, with absent
// pages equivalent to all-zero pages.
func (s *MemoryState) Equal(o *MemoryState) bool {
	for k, p := range s.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		if op := o.pages[k]; p != op && !pageEqual(p, op) {
			return false
		}
	}
	for k, op := range o.pages { //lint:ordered all-pages-must-match check; order cannot reach the boolean result
		if _, ok := s.pages[k]; !ok && !pageEqual(nil, op) {
			return false
		}
	}
	return true
}

func pageEqual(a, b *[PageSize]byte) bool {
	if a == nil && b == nil {
		return true
	}
	if a == nil {
		a, b = b, a
	}
	if b == nil {
		for _, v := range a {
			if v != 0 {
				return false
			}
		}
		return true
	}
	return *a == *b
}
