package machine

import (
	"testing"

	"sevsim/internal/binio"
	"sevsim/internal/isa"
)

// TestSnapEncodeRoundTripWithCrash serializes a snapshot taken from a
// crashed machine — the one core state a mid-run golden checkpoint
// never exhibits — and asserts strict equality after decode, crash
// detail included.
func TestSnapEncodeRoundTripWithCrash(t *testing.T) {
	ins := []isa.Instr{
		isa.I(isa.OpLui, isa.RegA0, 0, 0x0900), // 0x09000000: unmapped
		isa.Load(isa.OpLw, isa.RegA1, isa.RegA0, 0),
		isa.Halt(),
	}
	for _, cfg := range Configs() {
		m := New(cfg, prog(ins))
		if res := m.Run(100000); res.Outcome != OutcomeCrash {
			t.Fatalf("%s: outcome %v, want crash", cfg.Name, res.Outcome)
		}
		sn := m.Snapshot()
		var w binio.Writer
		sn.EncodeTo(&w, nil)
		got, err := DecodeSnap(binio.NewReader(w.Bytes()), cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !got.Equal(sn) {
			t.Fatalf("%s: crashed snapshot not equal after round trip", cfg.Name)
		}
		if got.Core.Crash == nil || *got.Core.Crash != *sn.Core.Crash {
			t.Fatalf("%s: crash detail lost: %v vs %v", cfg.Name, got.Core.Crash, sn.Core.Crash)
		}
		got.Release()
		sn.Release()
	}
}
