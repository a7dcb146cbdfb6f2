package binanalysis

import (
	"fmt"
	"math/bits"
	"sort"

	"sevsim/internal/faultinj"
)

// DUEPruner is the three-way pruner tier: on top of BitPruner's
// provably-Masked classification it proves injections CRASH-CERTAIN
// (DUE) from the must-DUE fault-propagation analysis (propagate.go),
// classifying them as deterministic crashes without simulating them.
//
// The static side of the argument is DueOutBits': a due bit of the
// architectural register a mapped by the flipped physical register,
// taken at the last committed instruction, reaches a faulting consumer
// on every static path — so in particular on the golden continuation —
// before any instruction can demand it for a value, address, branch,
// or output. The crash masks rely only on fault-free alignment and
// address-ceiling invariants, never on the judged register's own known
// bits, and addrCeilOK re-validates the ceiling against the concrete
// program layout before the tier switches on.
//
// The microarchitectural side needs one extra gate the Masked tiers do
// not: a crash VERDICT (unlike a masked one) is falsified if any
// reader consumes the clean pre-flip value. An instruction at trace
// position j can have renamed — and read the physical register —
// before the flip at state k only while it shares the reorder window
// with position k: position j allocates its ROB entry no earlier than
// the commit of position j-ROBSize (ROB occupancy is bounded and both
// commit and rename are in order), and that commit happens at or after
// the flip cycle once j-k >= ROBSize. The pruner therefore claims DUE
// only when the FIRST golden reader of the register lies at least
// ROBSize commits past the flip point; the faulting consumer is that
// reader or later, so it renames — and reads the corrupted value —
// strictly after the flip. Squashed wrong-path work cannot rescue the
// value either: the flipped physical register stays architecturally
// mapped until the crash, so no speculative destination reallocates it.
//
// Timing: the proven crash surfaces when the faulting consumer
// commits, near its golden commit cycle; as with the Masked tiers,
// squashed work perturbs timing only within the 2x timeout budget, so
// the run registers as a Crash, not a Timeout. The soundness test
// re-simulates every DUE-pruned injection and asserts the crash.
//
// DUEPruner is safe for concurrent use.
type DUEPruner struct {
	*BitPruner
	robSize int
	dueOK   bool // address-ceiling layout validated

	// readers[a] lists, ascending, the trace positions whose
	// instruction reads architectural register a (positions with a PC
	// outside the code image appear in every register's list).
	readers [32][]int32
}

// NewDUEPruner builds the three-way pruner for one traced experiment.
// The analysis must come from the same binary the experiment runs. The
// DUE tier disables itself (falling back to BitPruner behavior) when
// the program's memory layout exceeds the address ceiling the crash
// masks assume; the Masked tiers are unaffected.
func NewDUEPruner(a *Analysis, exp *faultinj.Experiment) (*DUEPruner, error) {
	bp, err := NewBitPruner(a, exp)
	if err != nil {
		return nil, err
	}
	p := &DUEPruner{
		BitPruner: bp,
		robSize:   exp.Config.CPU.ROBSize,
		dueOK:     addrCeilOK(len(a.CFG.Code), exp.Program.GlobalSize),
	}
	for k, ev := range p.events {
		idx := p.idxOf(ev.PC)
		if idx < 0 {
			for r := 1; r < 32; r++ {
				p.readers[r] = append(p.readers[r], int32(k))
			}
			continue
		}
		s1, s2 := a.CFG.Code[idx].SourceRegs()
		if s1 != 0xff && s1 < 32 {
			p.readers[s1] = append(p.readers[s1], int32(k))
		}
		if s2 != 0xff && s2 < 32 && s2 != s1 {
			p.readers[s2] = append(p.readers[s2], int32(k))
		}
	}
	return p, nil
}

// dueBitsAfter returns the crash-certain bit mask of architectural
// register a once k events have committed (0 when unanalyzable).
func (p *DUEPruner) dueBitsAfter(k int, a uint8) uint64 {
	if k == 0 {
		return p.bits.EntryDueBits(a)
	}
	idx := p.idxOf(p.events[k-1].PC)
	if idx < 0 {
		return 0
	}
	return p.bits.DueOutBits(idx, a)
}

// windowClear reports whether the first golden reader of architectural
// register a at or past state k lies at least ROBSize commits away, so
// no in-flight instruction can have read the register before the flip.
// A register with no reader ahead reports false: the must-DUE masks
// guarantee a faulting reader exists whenever a due bit is set, so
// this only suppresses (never unsoundly admits) a claim.
func (p *DUEPruner) windowClear(k int, a uint8) bool {
	rs := p.readers[a]
	i := sort.Search(len(rs), func(i int) bool { return int(rs[i]) >= k })
	return i < len(rs) && int(rs[i])-k >= p.robSize
}

// PrunableKind implements faultinj.Pruner for the RF target with
// the full three-way tier order: dead register, dead bit, due bit.
func (p *DUEPruner) PrunableKind(t faultinj.Target, inj faultinj.Injection) (faultinj.PruneKind, string) {
	if t.Name() != "RF" {
		return faultinj.PruneNone, "not an RF injection"
	}
	phys := uint16(inj.Bit / uint64(p.xlen))
	bit := inj.Bit % uint64(p.xlen)
	if phys == 0 {
		return faultinj.PruneNone, "phys 0 holds the zero register"
	}
	k := p.stateAt(inj.Cycle)
	dead, ok := p.deadAfter(k)
	if !ok {
		return faultinj.PruneNone, "last commit PC outside code image"
	}
	rat := p.ratAt(k)
	for a := 1; a < p.numArch; a++ {
		if rat[a] != phys {
			continue
		}
		if dead.Has(uint8(a)) {
			return faultinj.PruneReg, fmt.Sprintf("phys %d maps dead arch %d after commit %d", phys, a, k)
		}
		if p.deadBitsAfter(k, uint8(a))&(1<<bit) != 0 {
			return faultinj.PruneBit, fmt.Sprintf("phys %d maps arch %d whose bit %d is dead after commit %d", phys, a, bit, k)
		}
		if p.dueOK && p.dueBitsAfter(k, uint8(a))&(1<<bit) != 0 && p.windowClear(k, uint8(a)) {
			return faultinj.PruneDUE, fmt.Sprintf("phys %d maps arch %d whose bit %d is crash-certain after commit %d", phys, a, bit, k)
		}
		return faultinj.PruneNone, fmt.Sprintf("phys %d maps arch %d with live bit %d", phys, a, bit)
	}
	return faultinj.PruneNone, fmt.Sprintf("phys %d not in committed rename map", phys)
}

// Bound computes the three-way static RF bound. The per-interval
// criterion is exactly PrunableKind's — dead bits first, then due bits
// gated by the reorder window — so DuePrunableBits equals the DUE-
// pruned count of an exhaustive campaign, and the Masked fields match
// BitPruner's bound exactly.
func (p *DUEPruner) Bound() RFBound {
	b := RFBound{SpaceBits: p.goldenCycles * uint64(p.numPhys) * uint64(p.xlen)}
	if b.SpaceBits == 0 {
		return b
	}
	var bitSum, regSum, dueSum uint64
	p.walkIntervals(func(k int, cycles uint64) {
		dead, ok := p.deadAfter(k)
		if !ok {
			return
		}
		regSum += uint64(dead.Count()) * uint64(p.xlen) * cycles
		var nb, nd uint64
		for a := 1; a < p.numArch; a++ {
			db := p.deadBitsAfter(k, uint8(a))
			nb += uint64(bits.OnesCount64(db))
			if p.dueOK && p.windowClear(k, uint8(a)) {
				nd += uint64(bits.OnesCount64(p.dueBitsAfter(k, uint8(a)) &^ db))
			}
		}
		bitSum += nb * cycles
		dueSum += nd * cycles
	})
	b.PrunableBits = bitSum
	b.MaskedLB = float64(bitSum) / float64(b.SpaceBits)
	b.AVFUpperBound = 1 - b.MaskedLB
	b.RegPrunableBits = regSum
	b.RegMaskedLB = float64(regSum) / float64(b.SpaceBits)
	b.DuePrunableBits = dueSum
	b.DueLB = float64(dueSum) / float64(b.SpaceBits)
	b.SDCUpperBound = 1 - b.MaskedLB - b.DueLB
	return b
}
