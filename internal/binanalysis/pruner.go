package binanalysis

import (
	"fmt"
	"sort"

	"sevsim/internal/cpu"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

// RFPruner proves sampled register-file faults masked without
// simulating them, by combining the static dead-register sets with the
// golden run's commit trace.
//
// The argument: a flip at cycle c lands in the committed machine state
// as of c (the commit hook fires before the cycle's pipeline step, so
// commits recorded at cycle c happen after the flip). Reconstructing
// the committed rename map at c tells us which architectural register a
// the flipped physical register p currently holds. If a is statically
// dead after the last committed instruction — no static path from that
// point reads a before redefining it — then no execution, including any
// wrong-path instructions the front end speculatively fetches (every
// speculative path is also a static path, and squashed work only
// perturbs timing within the 2x timeout budget), can consume the
// corrupted value. The fault is provably Masked.
//
// Conservative exclusions, each returning "not prunable":
//   - physical register 0: permanently maps the zero register;
//   - physical registers not in the committed rename map: they are
//     free, or in flight as a speculative destination whose liveness
//     the committed-state analysis cannot bound;
//   - a last-commit PC outside the code image.
//
// RFPruner is safe for concurrent use.
type RFPruner struct {
	a            *Analysis
	events       []cpu.CommitEvent
	xlen         int
	numPhys      int
	numArch      int
	goldenCycles uint64

	// RAT snapshots every ckptInterval events; query replay touches at
	// most ckptInterval events past a snapshot.
	ckpts [][]uint16
}

const ckptInterval = 1024

// NewRFPruner builds the pruner for one traced experiment. The
// analysis must come from the same binary the experiment runs.
func NewRFPruner(a *Analysis, exp *faultinj.Experiment) (*RFPruner, error) {
	if exp.Trace == nil {
		return nil, fmt.Errorf("binanalysis: experiment has no commit trace (use NewTracedExperiment)")
	}
	cfg := exp.Config.CPU
	p := &RFPruner{
		a:            a,
		events:       exp.Trace,
		xlen:         cfg.XLEN,
		numPhys:      cfg.NumPhysRegs,
		numArch:      cfg.NumArchRegs,
		goldenCycles: exp.GoldenCycles,
	}
	// Initial committed rename map is the identity over the
	// architectural registers (see cpu.NewCore).
	rat := make([]uint16, p.numArch)
	for a := range rat {
		rat[a] = uint16(a)
	}
	for k, ev := range p.events {
		if k%ckptInterval == 0 {
			p.ckpts = append(p.ckpts, append([]uint16(nil), rat...))
		}
		if ev.DestArch != cpu.NoDest && int(ev.DestArch) < p.numArch {
			rat[ev.DestArch] = ev.DestPhys
		}
	}
	return p, nil
}

// idxOf maps a committed PC to its instruction index, or -1 when the
// PC lies outside the code image.
func (p *RFPruner) idxOf(pc uint64) int {
	if pc < machine.CodeBase || (pc-machine.CodeBase)%4 != 0 {
		return -1
	}
	idx := int((pc - machine.CodeBase) / 4)
	if idx >= len(p.a.CFG.Code) {
		return -1
	}
	return idx
}

// stateAt returns the number of events committed strictly before an
// injection at cycle c (the flip precedes same-cycle commits).
func (p *RFPruner) stateAt(c uint64) int {
	return sort.Search(len(p.events), func(i int) bool { return p.events[i].Cycle >= c })
}

// deadAfter returns the dead-register set in effect once k events have
// committed, and false when the state is unanalyzable (PC outside the
// image).
func (p *RFPruner) deadAfter(k int) (RegSet, bool) {
	if k == 0 {
		return p.a.EntryDead(p.numArch), true
	}
	idx := p.idxOf(p.events[k-1].PC)
	if idx < 0 {
		return 0, false
	}
	return p.a.DeadOut(idx, p.numArch), true
}

// ratAt reconstructs the committed rename map after k events.
func (p *RFPruner) ratAt(k int) []uint16 {
	base := k / ckptInterval
	rat := append([]uint16(nil), p.ckpts[base]...)
	for _, ev := range p.events[base*ckptInterval : k] {
		if ev.DestArch != cpu.NoDest && int(ev.DestArch) < p.numArch {
			rat[ev.DestArch] = ev.DestPhys
		}
	}
	return rat
}

// PrunableKind implements faultinj.Pruner for the RF target: every
// proof is register-granular (PruneReg).
func (p *RFPruner) PrunableKind(t faultinj.Target, inj faultinj.Injection) (faultinj.PruneKind, string) {
	if t.Name() != "RF" {
		return faultinj.PruneNone, "not an RF injection"
	}
	phys := uint16(inj.Bit / uint64(p.xlen))
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
		if rat[a] == phys {
			if dead.Has(uint8(a)) {
				return faultinj.PruneReg, fmt.Sprintf("phys %d maps dead arch %d after commit %d", phys, a, k)
			}
			return faultinj.PruneNone, fmt.Sprintf("phys %d maps live arch %d", phys, a)
		}
	}
	return faultinj.PruneNone, fmt.Sprintf("phys %d not in committed rename map", phys)
}

// RFBound is the static vulnerability bound for the RF target of one
// (config, binary) pair: the fraction of the (cycle x bit) injection
// space the pruner proves Masked lower-bounds the Masked rate, so its
// complement upper-bounds the AVF.
//
// The Reg-prefixed fields carry the register-granular bound alongside
// the headline one. For an RFPruner the pairs coincide; for a
// BitPruner the headline fields are the (tighter) bit-granular bound
// and the Reg fields record what register granularity alone proves —
// the gap is the precision bought by known-bits + bit liveness.
type RFBound struct {
	MaskedLB      float64 // provably-masked fraction of the space
	AVFUpperBound float64 // 1 - MaskedLB
	PrunableBits  uint64  // provably-masked (cycle x bit) points
	SpaceBits     uint64  // total (cycle x bit) points

	RegMaskedLB     float64 // register-granular provably-masked fraction
	RegPrunableBits uint64  // register-granular provably-masked points

	// Three-way refinement (DUEPruner; zero for the Masked-only
	// pruners): DueLB lower-bounds the crash-certain (DUE) outcome
	// fraction and SDCUpperBound caps what remains for SDC once both
	// proof classes are subtracted. The provably-masked and
	// provably-DUE point sets are disjoint, so the three fractions
	// partition the space: MaskedLB + DueLB + SDCUpperBound == 1.
	DueLB           float64
	SDCUpperBound   float64
	DuePrunableBits uint64 // provably-DUE (cycle x bit) points
}

// walkIntervals visits the commit trace as a sequence of
// constant-state cycle intervals: the committed state after k events
// is in effect for every injection cycle in (cycle of event k-1, cycle
// of event k], clipped to the golden run's cycle count. f receives
// each interval's event count k and its width in cycles.
func (p *RFPruner) walkIntervals(f func(k int, cycles uint64)) {
	g := p.goldenCycles
	if g == 0 {
		return
	}
	last := g - 1
	c0 := uint64(0) // first injection cycle governed by the current state
	k := 0
	for k < len(p.events) {
		cy := p.events[k].Cycle
		j := k
		for j < len(p.events) && p.events[j].Cycle == cy {
			j++
		}
		hi := cy
		if hi > last {
			hi = last
		}
		if c0 <= hi {
			f(k, hi-c0+1)
		}
		c0 = cy + 1
		k = j
	}
	if c0 <= last {
		f(len(p.events), g-c0)
	}
}

// Bound computes the static RF bound by interval-walking the commit
// trace: within an interval every bit of every dead mapped register is
// provably masked. The per-cycle criterion is exactly PrunableKind's, so
// the bound equals the pruned fraction of an exhaustive campaign.
func (p *RFPruner) Bound() RFBound {
	b := RFBound{SpaceBits: p.goldenCycles * uint64(p.numPhys) * uint64(p.xlen)}
	if b.SpaceBits == 0 {
		return b
	}
	var sum uint64
	p.walkIntervals(func(k int, cycles uint64) {
		dead, ok := p.deadAfter(k)
		if !ok {
			return
		}
		// Every architectural register is always mapped to exactly one
		// physical register, so each dead register contributes XLEN
		// prunable bits regardless of which physical slot holds it.
		sum += uint64(dead.Count()) * uint64(p.xlen) * cycles
	})
	b.PrunableBits = sum
	b.MaskedLB = float64(sum) / float64(b.SpaceBits)
	b.AVFUpperBound = 1 - b.MaskedLB
	b.RegPrunableBits = sum
	b.RegMaskedLB = b.MaskedLB
	b.SDCUpperBound = b.AVFUpperBound // no DUE proof at this tier
	return b
}
