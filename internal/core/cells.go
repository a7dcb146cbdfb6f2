// Cell-granular work items: the interface the study engine exposes to
// distributed execution. A Spec decomposes into CellRefs (the exact
// cells Run would compute, in Run's deterministic order); RunCells
// executes any subset of them — preparing only the units those cells
// need — and returns self-contained CellOutcomes; and an Assembler
// merges outcomes arriving from any mix of workers, leases, and
// journal replays, in any completion order, back into a Study whose
// saved bytes are identical to a clean single-process Run of the same
// spec. The local scheduler and the remote coordinator/worker pair
// (internal/dispatch) both speak this interface.
package core

import (
	"context"
	"fmt"
	"strings"

	"sevsim/internal/campaign"
)

// CellRef addresses one campaign cell of a spec by name. It is the
// work-item key of the distributed engine: cell identity — not lease
// identity — is what completion is deduplicated on, so a cell computed
// twice by racing workers merges to one deterministic result.
type CellRef struct {
	March  string
	Bench  string
	Level  string
	Target string
}

// Key renders the ref as a stable "march/bench/level/target" string.
func (r CellRef) Key() string {
	return r.March + "/" + r.Bench + "/" + r.Level + "/" + r.Target
}

func (r CellRef) String() string { return r.Key() }

// unit returns the ref's (march, bench, level) unit key.
func (r CellRef) unit() cellKey {
	return cellKey{r.March, r.Bench, r.Level, ""}
}

func (r CellRef) cell() cellKey {
	return cellKey{r.March, r.Bench, r.Level, r.Target}
}

// Cells enumerates every campaign cell of the spec in the
// deterministic order Run computes them: machines, then benchmarks,
// then levels, then targets. Slicing this list is how a coordinator
// decomposes a study into lease-able work items.
func (s Spec) Cells() []CellRef {
	out := make([]CellRef, 0, len(s.Machines)*len(s.Benchmarks)*len(s.Levels)*len(s.Targets))
	for _, cfg := range s.Machines {
		for _, bench := range s.Benchmarks {
			for _, level := range s.Levels {
				for _, t := range s.Targets {
					out = append(out, CellRef{
						March: cfg.Name, Bench: bench.Name,
						Level: level.String(), Target: t.Name(),
					})
				}
			}
		}
	}
	return out
}

// CellOutcome is one completed work item — what a RunCells call
// returns, a coordinator merges and a study journal records: the
// cell's campaign result plus, on the first outcome of each
// (march, bench, level) unit, the unit's golden record (and static
// bound, for prune studies) so the receiver can reassemble the full
// Study without re-running anything. Failures ride along instead of results when the
// spec runs keep-going: UnitFailure for a quarantined preparation
// (Result is then the deterministic skipped placeholder), CellFailure
// for a stuck or panicking cell.
type CellOutcome struct {
	Cell   CellRef
	Result campaign.Result

	Golden *Golden   `json:",omitempty"`
	Static *StaticRF `json:",omitempty"`

	UnitFailure *Failure `json:",omitempty"`
	CellFailure *Failure `json:",omitempty"`
}

// RunCells executes just the requested cells of the spec (in any
// order, duplicates rejected) and returns one outcome per request, in
// the spec's deterministic enumeration order. Only the units the cells
// touch are compiled and golden-run; every knob of the spec —
// parallelism, journaling with replay, keep-going quarantine, pruning,
// checkpoints — applies exactly as in Run, and each outcome is
// byte-identical to the corresponding slice of a full Run. A worker
// process given a lease of cells calls this with a local journal path,
// so a worker killed mid-lease resumes its own partial work on
// restart.
func (s Spec) RunCells(ctx context.Context, cells []CellRef) ([]CellOutcome, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	asm := NewAssembler(s)
	sel := make(selection, len(cells))
	for _, ref := range cells {
		k := ref.cell()
		if _, ok := asm.cellIdx[k]; !ok {
			return nil, fmt.Errorf("core: cell %s is not in the spec", ref)
		}
		if sel[k] {
			return nil, fmt.Errorf("core: cell %s requested twice", ref)
		}
		sel[k] = true
	}
	if err := s.run(ctx, asm, sel); err != nil {
		return nil, err
	}
	return asm.outcomes(sel)
}

// goldenKind tracks what filled a unit's golden slot during assembly.
type goldenKind int

const (
	goldenNone        goldenKind = iota
	goldenPlaceholder            // quarantine placeholder (names only)
	goldenReal                   // a worker-computed golden record
)

// Assembler merges CellOutcomes into a Study. It is the only code that
// lays out a Study and places results: a local Run, a journal replay,
// RunCells and the distributed coordinator all go through Add.
// Outcomes may arrive in any order, from any number of workers, and
// more than once (a lease-expiry race can make two workers compute the
// same cell): the first outcome per cell wins and later ones are
// reported as duplicates, so no cell is ever double-counted. When every
// cell of the spec is accounted for, Study returns a result whose saved
// bytes are identical to a clean single-process Run — the
// merge-determinism guarantee the distributed service rests on (values
// land at canonical slice indices, quarantines assemble in
// unit-enumeration order, and every value is itself deterministic given
// the spec).
type Assembler struct {
	nt    int
	st    *Study
	cells []CellRef // the spec's cells in enumeration order

	cellIdx    map[cellKey]int // cell -> flat result index
	placed     []*CellOutcome  // per flat index: the accepted outcome, Golden/Static moved into st
	remaining  int
	haveGolden []goldenKind // per unit
}

// NewAssembler lays out the spec's empty study: unit i (machines, then
// benchmarks, then levels) owns Goldens[i] (and Static[i] in a prune
// study) and Results[i*nt, (i+1)*nt), nt being the target count.
func NewAssembler(spec Spec) *Assembler {
	m := spec.fingerprint()
	st := &Study{
		MachineNames: m.Machines, BenchNames: m.Benches,
		LevelNames: m.Levels, TargetNames: m.Targets,
		Faults: spec.Faults,
	}
	cells := spec.Cells()
	units := len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels)
	if units > 0 {
		st.Goldens = make([]Golden, units)
		st.Results = make([]campaign.Result, len(cells))
		if spec.Prune {
			st.Static = make([]StaticRF, units)
		}
	}
	a := &Assembler{
		nt:         len(spec.Targets),
		st:         st,
		cells:      cells,
		cellIdx:    make(map[cellKey]int, len(cells)),
		placed:     make([]*CellOutcome, len(cells)),
		remaining:  len(cells),
		haveGolden: make([]goldenKind, units),
	}
	for i, ref := range cells {
		a.cellIdx[ref.cell()] = i
	}
	return a
}

// placeholder is the outcome of a cell that will never produce a
// result: every cell of a unit whose preparation failed (f.Target
// empty), a cell that failed — a campaign panic, a lease out of
// retries — or a cell the watchdog stopped (f.Stuck). It derives from
// the failure alone, so a replayed or merged quarantine yields the
// bytes of the original.
func placeholder(ref CellRef, f Failure) CellOutcome {
	o := CellOutcome{Cell: ref, Result: campaign.Result{
		March: ref.March, Bench: ref.Bench, Level: ref.Level, Target: ref.Target,
	}}
	switch {
	case f.Target == "":
		o.UnitFailure = &f
		o.Result.Skipped = "unit " + f.Stage + " failed: " + f.Err
	case f.Stuck:
		o.CellFailure = &f
		o.Result.Skipped = "stuck: " + f.Err
	default:
		o.CellFailure = &f
		o.Result.Skipped = "cell failed: " + f.Err
	}
	return o
}

// Check validates an outcome without placing it: its cell must be in
// the spec, and every record it carries must name that cell (or its
// unit), so a corrupt journal line or a confused worker cannot place
// one cell's values under another's name. Add applies the same check;
// a receiver with side effects of its own (a journal) calls Check
// before them.
func (a *Assembler) Check(o CellOutcome) error {
	cell, unit := o.Cell.cell(), o.Cell.unit()
	if _, ok := a.cellIdx[cell]; !ok {
		return fmt.Errorf("core: cell %s is not in the spec", o.Cell)
	}
	var bad []string
	if r := o.Result; o.UnitFailure == nil && (cellKey{r.March, r.Bench, r.Level, r.Target}) != cell {
		bad = append(bad, "result")
	}
	if g := o.Golden; g != nil && (cellKey{g.March, g.Bench, g.Level, ""}) != unit {
		bad = append(bad, "golden")
	}
	if s := o.Static; s != nil && (cellKey{s.March, s.Bench, s.Level, ""}) != unit {
		bad = append(bad, "static bound")
	}
	if f := o.UnitFailure; f != nil && (cellKey{f.March, f.Bench, f.Level, f.Target}) != unit {
		bad = append(bad, "unit failure")
	}
	if f := o.CellFailure; f != nil && (cellKey{f.March, f.Bench, f.Level, f.Target}) != cell {
		bad = append(bad, "cell failure")
	}
	if len(bad) > 0 {
		return fmt.Errorf("core: outcome for %s carries a %s of another cell", o.Cell, strings.Join(bad, ", "))
	}
	return nil
}

// Add merges one outcome. It reports whether the outcome was accepted:
// false with a nil error means the cell was already complete (the
// deduplicated double-completion of a lease-expiry race) and the new
// outcome was discarded.
func (a *Assembler) Add(o CellOutcome) (accepted bool, err error) {
	if err := a.Check(o); err != nil {
		return false, err
	}
	idx := a.cellIdx[o.Cell.cell()]
	if a.placed[idx] != nil {
		return false, nil
	}
	if f := o.UnitFailure; f != nil {
		// A quarantined preparation: the deterministic placeholder a
		// keep-going Run records, whatever Result the sender put in.
		o = placeholder(o.Cell, *f)
	}
	ui := idx / a.nt
	switch {
	case o.UnitFailure != nil && a.haveGolden[ui] == goldenNone:
		a.st.Goldens[ui] = Golden{March: o.Cell.March, Bench: o.Cell.Bench, Level: o.Cell.Level}
		if a.st.Static != nil {
			a.st.Static[ui] = StaticRF{March: o.Cell.March, Bench: o.Cell.Bench, Level: o.Cell.Level}
		}
		a.haveGolden[ui] = goldenPlaceholder
	case o.Golden != nil && a.haveGolden[ui] != goldenReal:
		a.st.Goldens[ui] = *o.Golden
		if a.st.Static != nil && o.Static != nil {
			a.st.Static[ui] = *o.Static
		}
		a.haveGolden[ui] = goldenReal
	}
	a.st.Results[idx] = o.Result
	o.Golden, o.Static = nil, nil
	a.placed[idx] = &o
	a.remaining--
	return true, nil
}

// Quarantine records a cell that will never complete — its leases
// expired or failed past the retry budget — with the failure that
// removed it from the study. It is Add of the failure's placeholder
// outcome, so a late completion racing a quarantine (or vice versa)
// resolves deterministically to whichever was recorded first.
func (a *Assembler) Quarantine(ref CellRef, f Failure) (accepted bool, err error) {
	return a.Add(placeholder(ref, f))
}

// pending reports whether flat cell i still awaits an outcome.
func (a *Assembler) pending(i int) bool { return a.placed[i] == nil }

// unitFailure returns the preparation failure already placed for unit
// ui — its first cell's, in target order — or nil.
func (a *Assembler) unitFailure(ui int) *Failure {
	for _, o := range a.placed[ui*a.nt : (ui+1)*a.nt] {
		if o != nil && o.UnitFailure != nil {
			return o.UnitFailure
		}
	}
	return nil
}

// hasGolden reports whether unit ui's real golden record is placed.
func (a *Assembler) hasGolden(ui int) bool { return a.haveGolden[ui] == goldenReal }

// outcomes returns the placed outcomes of the selected cells in
// enumeration order, the unit's golden record (and static bound)
// attached to the first outcome of each unit that has one — the shape
// RunCells hands a coordinator, whatever mix of replay and fresh work
// placed the cells.
func (a *Assembler) outcomes(sel selection) ([]CellOutcome, error) {
	out := make([]CellOutcome, 0, len(sel))
	attached := -1
	for i, ref := range a.cells {
		if !sel[ref.cell()] {
			continue
		}
		if a.pending(i) {
			return nil, fmt.Errorf("core: cell %s has no outcome", ref)
		}
		o := *a.placed[i]
		if ui := i / a.nt; o.UnitFailure == nil && ui != attached && a.hasGolden(ui) {
			g := a.st.Goldens[ui]
			o.Golden = &g
			if a.st.Static != nil {
				sc := a.st.Static[ui]
				o.Static = &sc
			}
			attached = ui
		}
		out = append(out, o)
	}
	return out, nil
}

// Done returns how many of the spec's cells are accounted for.
func (a *Assembler) Done() int { return len(a.placed) - a.remaining }

// Total returns the spec's cell count.
func (a *Assembler) Total() int { return len(a.placed) }

// Complete reports whether every cell is accounted for.
func (a *Assembler) Complete() bool { return a.remaining == 0 }

// Missing lists the cells not yet accounted for, in enumeration order.
func (a *Assembler) Missing() []CellRef {
	var out []CellRef
	for i, ref := range a.cells {
		if a.pending(i) {
			out = append(out, ref)
		}
	}
	return out
}

// Study finalizes the assembly. It fails if any cell is still missing:
// a partial study must never masquerade as a complete one.
func (a *Assembler) Study() (*Study, error) {
	if a.remaining > 0 {
		missing := a.Missing()
		keys := make([]string, 0, min(len(missing), 5))
		for i, ref := range missing {
			if i == 5 {
				break
			}
			keys = append(keys, ref.Key())
		}
		return nil, fmt.Errorf("core: assembly incomplete: %d of %d cells missing (first: %s)",
			a.remaining, len(a.placed), strings.Join(keys, ", "))
	}
	// Quarantine records assemble in unit-enumeration order: the unit's
	// failure (its first cell's, in target order) and then the
	// per-target cell failures.
	st := a.st
	st.Failed = nil
	for ui := range a.haveGolden {
		if f := a.unitFailure(ui); f != nil {
			st.Failed = append(st.Failed, *f)
		}
		for _, o := range a.placed[ui*a.nt : (ui+1)*a.nt] {
			if o.CellFailure != nil {
				st.Failed = append(st.Failed, *o.CellFailure)
			}
		}
	}
	return st, nil
}
