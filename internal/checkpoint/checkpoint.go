// Package checkpoint records and serves full-machine snapshots of a
// golden (fault-free) run, the mechanism behind the injection engine's
// two biggest wall-clock levers:
//
//   - fast-forward: an injection at cycle c restores the latest
//     checkpoint at-or-before c instead of re-simulating the fault-free
//     prefix from cycle 0 — with injection cycles uniform over the
//     golden run, K evenly spaced checkpoints remove ~(1 − 1/2K) of all
//     pre-injection simulation;
//
//   - early convergence: checkpoints after the injection cycle double
//     as reference points for the Masked fast exit — if the faulty
//     machine's behavioral state equals the golden state at the same
//     cycle, the rest of the run provably replays golden and the
//     injection is Masked without simulating the tail.
//
// A Stream is immutable after Record and safe to share read-only across
// every worker of a campaign cell: machine.Restore copies out of a
// snapshot, never into it. Cache blocks and memory pages are
// copy-on-write, and consecutive checkpoints share every block and page
// that did not change between them, so a stream's memory grows with
// what the golden run touches between checkpoints rather than with K
// full copies of the cache hierarchy. That is what lets the default
// checkpoint count be dense (faultinj.DefaultCheckpoints).
package checkpoint

import (
	"sort"

	"sevsim/internal/machine"
)

// Stream is the ordered checkpoint sequence of one golden run.
type Stream struct {
	snaps   []*machine.Snap
	watches []machine.Watch // convergence probe per snapshot, same order
}

// Cycles returns up to k evenly spaced checkpoint cycles for a golden
// run of the given length: 0, step, 2·step, … with step = goldenCycles/k,
// all strictly below goldenCycles (a hook at the halt cycle would never
// fire — the run ends there). Cycle 0 is always included so every
// injection has a checkpoint at-or-before it. Returns nil when k ≤ 0 or
// the golden run is empty.
func Cycles(goldenCycles uint64, k int) []uint64 {
	if k <= 0 || goldenCycles == 0 {
		return nil
	}
	if uint64(k) > goldenCycles {
		k = int(goldenCycles)
	}
	step := goldenCycles / uint64(k)
	out := make([]uint64, k)
	for i := range out {
		out[i] = uint64(i) * step
	}
	return out
}

// Record replays a golden run on m (a freshly built machine), taking a
// snapshot at the start of each listed cycle, and returns the stream
// plus the run's result. cycles must be ascending and below the halt
// cycle. The caller is expected to verify the result matches its first
// golden run — simulation is deterministic, so a mismatch means a
// simulator bug, not a recording artifact.
func Record(m *machine.Machine, maxCycles uint64, cycles []uint64) (*Stream, machine.Result) {
	s := &Stream{
		snaps:   make([]*machine.Snap, 0, len(cycles)),
		watches: make([]machine.Watch, 0, len(cycles)),
	}
	hooks := make([]machine.Hook, len(cycles))
	for i, c := range cycles {
		hooks[i] = machine.Hook{At: c, Fn: func(mm *machine.Machine) {
			sn := mm.Snapshot()
			s.snaps = append(s.snaps, sn)
			s.watches = append(s.watches, machine.Watch{
				At: sn.Cycle,
				Fn: func(live *machine.Machine) bool { return live.Converged(sn) },
			})
		}}
	}
	res := m.Run(maxCycles, hooks...)
	return s, res
}

// Len returns the number of recorded checkpoints.
func (s *Stream) Len() int { return len(s.snaps) }

// Snaps returns the checkpoints in ascending cycle order. The slice and
// the snapshots are shared — treat both as read-only.
func (s *Stream) Snaps() []*machine.Snap { return s.snaps }

// LatestIndex returns the index of the latest checkpoint at-or-before
// cycle, or -1 when none exists (only possible if cycle 0 was not
// recorded). Callers batching injections per checkpoint key on this
// index so every run of a batch restores the same snapshot.
func (s *Stream) LatestIndex(cycle uint64) int {
	return sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > cycle }) - 1
}

// Latest returns the latest checkpoint at-or-before cycle, or nil when
// none exists (only possible if cycle 0 was not recorded).
func (s *Stream) Latest(cycle uint64) *machine.Snap {
	if i := s.LatestIndex(cycle); i >= 0 {
		return s.snaps[i]
	}
	return nil
}

// Release returns every snapshot's pooled core state to its pool and
// empties the stream. The caller must be
// the stream's last user: no restore, watch, or Latest call may follow.
func (s *Stream) Release() {
	for _, sn := range s.snaps {
		sn.Release()
	}
	s.snaps = nil
	s.watches = nil
}

// WatchesAfter returns the convergence watches for every checkpoint
// strictly after cycle, ready to pass to machine.RunWatched. A watch at
// the injection cycle itself would be sound (hooks fire before watches,
// so it would observe post-flip state) but the strict bound keeps an
// injection from being classified by the very checkpoint it restored
// from. The returned slice aliases the stream — zero allocation per
// injection — and must not be modified.
func (s *Stream) WatchesAfter(cycle uint64) []machine.Watch {
	i := sort.Search(len(s.watches), func(i int) bool { return s.watches[i].At > cycle })
	return s.watches[i:]
}
