package checkpoint

import (
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/compiler"
	"sevsim/internal/machine"
	"sevsim/internal/mem"
	"sevsim/internal/workloads"
)

// qsortProgram compiles the qsort workload at TestSize for cfg: a real
// benchmark with a cache footprint that changes between checkpoints.
func qsortProgram(tb testing.TB, cfg machine.Config) *machine.Program {
	tb.Helper()
	bench, _ := workloads.ByName("qsort")
	prog, err := compiler.Compile(bench.Source(bench.TestSize), "qsort", compiler.O2,
		compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs})
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// record records a k-checkpoint stream of prog's golden run on cfg.
func record(tb testing.TB, cfg machine.Config, prog *machine.Program, k int) *Stream {
	tb.Helper()
	golden := machine.New(cfg, prog).Run(1 << 30)
	if golden.Outcome != machine.OutcomeOK {
		tb.Fatalf("golden run: %v", golden.Outcome)
	}
	stream, _ := Record(machine.New(cfg, prog), 1<<30, Cycles(golden.Cycles, k))
	return stream
}

// cacheLevels picks each cache level's state out of a snap.
var cacheLevels = []struct {
	name  string
	state func(*machine.Snap) *mem.CacheState
}{
	{"L1I", func(s *machine.Snap) *mem.CacheState { return s.L1I }},
	{"L1D", func(s *machine.Snap) *mem.CacheState { return s.L1D }},
	{"L2", func(s *machine.Snap) *mem.CacheState { return s.L2 }},
}

func levelStates(s *Stream, state func(*machine.Snap) *mem.CacheState) []*mem.CacheState {
	out := make([]*mem.CacheState, s.Len())
	for i, sn := range s.Snaps() {
		out[i] = state(sn)
	}
	return out
}

// TestRecordSharesBlocks pins the copy-on-write contract of recorded
// streams: every cache block that does not change between consecutive
// checkpoints is shared by pointer, and an encode/decode round trip
// keeps the snapshots Equal without un-sharing any block.
func TestRecordSharesBlocks(t *testing.T) {
	for _, cfg := range machine.Configs() {
		t.Run(cfg.Name, func(t *testing.T) {
			stream := record(t, cfg, qsortProgram(t, cfg), 8)
			defer stream.Release()
			var w binio.Writer
			stream.EncodeTo(&w)
			got, err := DecodeStream(binio.NewReader(w.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Release()
			for i, sn := range stream.Snaps() {
				if !got.Snaps()[i].Equal(sn) {
					t.Fatalf("snap %d not strictly equal after round trip", i)
				}
			}
			for _, lv := range cacheLevels {
				slots, distinct, missed := mem.BlockStats(levelStates(stream, lv.state))
				if missed != 0 {
					t.Errorf("%s: %d unchanged blocks not shared with the previous checkpoint", lv.name, missed)
				}
				if distinct >= slots {
					t.Errorf("%s: %d distinct blocks in %d slots; nothing shared", lv.name, distinct, slots)
				}
				_, decDistinct, decMissed := mem.BlockStats(levelStates(got, lv.state))
				if decMissed != 0 || decDistinct > distinct {
					t.Errorf("%s: decoded stream has %d distinct blocks (%d unshared), recorded %d",
						lv.name, decDistinct, decMissed, distinct)
				}
			}
		})
	}
}

// FuzzDecodeStream feeds arbitrary bytes to DecodeStream, the trust
// boundary between the prep-artifact cache on disk and the injection
// engine. Decoding must never panic, and whatever decodes must encode
// and decode again to strictly Equal snapshots.
func FuzzDecodeStream(f *testing.F) {
	cfg := machine.CortexA15Like()
	stream := record(f, cfg, qsortProgram(f, cfg), 3)
	var w binio.Writer
	stream.EncodeTo(&w)
	stream.Release()
	f.Add(w.Bytes())
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, blob []byte) {
		first, err := DecodeStream(binio.NewReader(blob), cfg)
		if err != nil {
			return
		}
		defer first.Release()
		var w binio.Writer
		first.EncodeTo(&w)
		again, err := DecodeStream(binio.NewReader(w.Bytes()), cfg)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		defer again.Release()
		if again.Len() != first.Len() {
			t.Fatalf("re-decoded %d snaps, want %d", again.Len(), first.Len())
		}
		for i, sn := range first.Snaps() {
			if !again.Snaps()[i].Equal(sn) {
				t.Fatalf("snap %d changed across re-encoding", i)
			}
		}
	})
}
