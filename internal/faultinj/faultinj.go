// Package faultinj implements the GeFIN-style statistical fault
// injector: single-bit transient faults placed uniformly at random over
// (cycle x bit) for each hardware structure field, with end-to-end
// outcome classification into the paper's five fault-effect classes.
package faultinj

import (
	"fmt"
	"math/rand"
	"sync"

	"sevsim/internal/checkpoint"
	"sevsim/internal/cpu"
	"sevsim/internal/machine"
)

// Outcome is the effect class of one injection, following the paper's
// taxonomy (Masked / SDC / Crash / Timeout / Assert).
type Outcome int

const (
	Masked Outcome = iota
	SDC
	Crash
	Timeout
	Assert
	NumOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "Masked"
	case SDC:
		return "SDC"
	case Crash:
		return "Crash"
	case Timeout:
		return "Timeout"
	case Assert:
		return "Assert"
	}
	return "?"
}

// Target is one injectable hardware structure field.
type Target struct {
	// Component is the paper-level structure (L1I, L1D, L2, RF, LQ, SQ,
	// IQ, ROB); Field distinguishes sub-arrays (data/tag, src/dst, ...).
	Component string
	Field     string

	bits func(*machine.Machine) uint64
	flip func(*machine.Machine, uint64)
}

// Name returns "Component.Field", or just the component when the
// structure has a single field.
func (t Target) Name() string {
	if t.Field == "" {
		return t.Component
	}
	return t.Component + "." + t.Field
}

// Bits returns the number of injectable bits in this machine's instance
// of the target.
func (t Target) Bits(m *machine.Machine) uint64 { return t.bits(m) }

// Flip flips the addressed bit.
func (t Target) Flip(m *machine.Machine, bit uint64) { t.flip(m, bit) }

func coreTarget(component, field string, f cpu.Field) Target {
	return Target{
		Component: component,
		Field:     field,
		bits:      func(m *machine.Machine) uint64 { return m.Core.FieldBits(f) },
		flip:      func(m *machine.Machine, bit uint64) { m.Core.FlipBit(f, bit) },
	}
}

// NewTarget builds a custom injectable target from explicit bit-count
// and bit-flip functions, for structures outside the paper's fifteen
// built-in fields (experimental arrays, ablation studies, tests).
func NewTarget(component, field string,
	bits func(*machine.Machine) uint64,
	flip func(*machine.Machine, uint64)) Target {
	return Target{Component: component, Field: field, bits: bits, flip: flip}
}

// Targets returns every injectable field, grouped by component in the
// paper's presentation order: the 8 components with all their
// sub-fields (15 fields total).
func Targets() []Target {
	return []Target{
		{Component: "L1I", Field: "data",
			bits: func(m *machine.Machine) uint64 { return m.L1I.DataBitCount() },
			flip: func(m *machine.Machine, b uint64) { m.L1I.FlipDataBit(b) }},
		{Component: "L1I", Field: "tag",
			bits: func(m *machine.Machine) uint64 { return m.L1I.TagBitCount() },
			flip: func(m *machine.Machine, b uint64) { m.L1I.FlipTagBit(b) }},
		{Component: "L1D", Field: "data",
			bits: func(m *machine.Machine) uint64 { return m.L1D.DataBitCount() },
			flip: func(m *machine.Machine, b uint64) { m.L1D.FlipDataBit(b) }},
		{Component: "L1D", Field: "tag",
			bits: func(m *machine.Machine) uint64 { return m.L1D.TagBitCount() },
			flip: func(m *machine.Machine, b uint64) { m.L1D.FlipTagBit(b) }},
		{Component: "L2", Field: "data",
			bits: func(m *machine.Machine) uint64 { return m.L2.DataBitCount() },
			flip: func(m *machine.Machine, b uint64) { m.L2.FlipDataBit(b) }},
		{Component: "L2", Field: "tag",
			bits: func(m *machine.Machine) uint64 { return m.L2.TagBitCount() },
			flip: func(m *machine.Machine, b uint64) { m.L2.FlipTagBit(b) }},
		coreTarget("RF", "", cpu.FieldPRF),
		coreTarget("LQ", "", cpu.FieldLQ),
		coreTarget("SQ", "", cpu.FieldSQ),
		coreTarget("IQ", "src", cpu.FieldIQSrc),
		coreTarget("IQ", "dst", cpu.FieldIQDst),
		coreTarget("ROB", "pc", cpu.FieldROBPC),
		coreTarget("ROB", "dest", cpu.FieldROBDest),
		coreTarget("ROB", "old", cpu.FieldROBOld),
		coreTarget("ROB", "ctrl", cpu.FieldROBCtrl),
	}
}

// TargetByName resolves "L1D.data"-style names.
func TargetByName(name string) (Target, bool) {
	for _, t := range Targets() {
		if t.Name() == name {
			return t, true
		}
	}
	return Target{}, false
}

// Components returns the component names in presentation order.
func Components() []string {
	return []string{"L1I", "L1D", "L2", "RF", "LQ", "SQ", "IQ", "ROB"}
}

// Experiment is a prepared injection experiment: one (machine config,
// binary) pair with its golden (fault-free) reference run. An
// Experiment is safe for concurrent use: campaigns over different
// targets may share one instance.
type Experiment struct {
	Config       machine.Config
	Program      *machine.Program
	GoldenCycles uint64
	GoldenOutput []uint64
	GoldenStats  machine.Result

	// Trace is the golden run's commit stream (program order), recorded
	// only by NewTracedExperiment. It feeds the binary-level ACE
	// analysis: reconstructing the committed rename map at any cycle is
	// what lets an injection pruner prove a register-file fault masked
	// without simulating it.
	Trace []cpu.CommitEvent

	// Bit counts depend only on the configuration, so they are computed
	// once per (experiment, target) on a single probe machine instead of
	// allocating a fresh machine per query.
	bitsMu   sync.Mutex
	bitCache map[string]uint64
	probe    *machine.Machine

	// ckpts is the golden checkpoint stream (nil when checkpointing is
	// disabled): injections fast-forward to the latest checkpoint
	// at-or-before their cycle instead of simulating from 0, and, with
	// fastExit, compare against later checkpoints to classify Masked at
	// the first provable state convergence. The stream is immutable and
	// shared read-only by every worker; scratch holds the per-worker
	// recycled machines that checkpoints are restored into.
	ckpts    *checkpoint.Stream
	fastExit bool
	scratch  sync.Pool
}

// timeoutFactor follows the paper: a run is a Timeout when it exceeds
// twice the fault-free execution time.
const timeoutFactor = 2

// NewExperiment runs the golden simulation and returns the prepared
// experiment, with checkpoint fast-forward and the early-convergence
// Masked exit enabled at their defaults.
func NewExperiment(cfg machine.Config, prog *machine.Program) (*Experiment, error) {
	return NewExperimentOptions(cfg, prog, Options{})
}

// NewTracedExperiment is NewExperiment with commit tracing: the golden
// run additionally records one CommitEvent per committed instruction
// (Experiment.Trace), the input to static ACE analysis and injection
// pruning. The trace costs ~16 bytes per committed instruction, so it
// is opt-in rather than the default.
func NewTracedExperiment(cfg machine.Config, prog *machine.Program) (*Experiment, error) {
	return NewExperimentOptions(cfg, prog, Options{Traced: true})
}

// NewExperimentOptions is the fully configurable constructor: it runs
// the golden simulation, then (unless opts.Checkpoints is negative)
// replays it once more to record the golden checkpoint stream the
// injection fast path restores from.
func NewExperimentOptions(cfg machine.Config, prog *machine.Program, opts Options) (*Experiment, error) {
	m := machine.New(cfg, prog)
	var trace []cpu.CommitEvent
	if opts.Traced {
		trace = make([]cpu.CommitEvent, 0, 1024)
		m.Core.SetCommitHook(func(ev cpu.CommitEvent) { trace = append(trace, ev) })
	}
	res := m.Run(1 << 40)
	if res.Outcome != machine.OutcomeOK {
		return nil, &GoldenError{Result: res}
	}
	out := make([]uint64, len(res.Output))
	copy(out, res.Output)
	e := &Experiment{
		Config:       cfg,
		Program:      prog,
		GoldenCycles: res.Cycles,
		GoldenOutput: out,
		GoldenStats:  res,
		Trace:        trace,
	}
	if opts.Checkpoints >= 0 {
		k := opts.Checkpoints
		if k == 0 {
			k = DefaultCheckpoints
		}
		if cycles := checkpoint.Cycles(res.Cycles, k); len(cycles) > 0 {
			stream, rec := checkpoint.Record(machine.New(cfg, prog), 1<<40, cycles)
			if rec.Outcome != machine.OutcomeOK || rec.Cycles != res.Cycles || !sameOutput(rec.Output, out) {
				// Simulation is deterministic; a recording pass that
				// deviates from the first golden run is a simulator bug
				// and checkpoints built from it would be unsound.
				return nil, fmt.Errorf("faultinj: checkpoint recording diverged from golden run (%s after %d cycles vs ok after %d)",
					rec.Outcome, rec.Cycles, res.Cycles)
			}
			e.ckpts = stream
			e.fastExit = !opts.NoFastExit
		}
	}
	return e, nil
}

// Pruner decides, without simulating, that a sampled fault's outcome
// is statically proven. Implementations must be safe for concurrent
// use: campaign workers consult the pruner from many goroutines. The
// binary-level ACE analyzer (internal/binanalysis) provides the
// register-file pruners; the interface lives here so the campaign
// driver does not depend on the analyzer.
type Pruner interface {
	// PrunableKind classifies the injection into target: PruneNone
	// when no static proof covers it, otherwise the proof class, with
	// a short human-readable reason for audit trails.
	PrunableKind(t Target, inj Injection) (PruneKind, string)
}

// PruneKind records which static proof class a pruner assigned an
// injection: provably masked at register or bit granularity, or
// provably a deterministic crash (DUE). The kind decides the synthetic
// outcome a pruned injection records — Masked for the dead-value
// proofs, Crash for PruneDUE.
type PruneKind uint8

const (
	PruneNone PruneKind = iota // no static proof; must simulate
	PruneReg                   // masked: the whole mapped register is dead
	PruneBit                   // masked: bit-granular analysis proves the bit dead
	PruneDUE                   // crash-certain: fault propagation proves a deterministic fault
)

// String names the proof class for reports.
func (k PruneKind) String() string {
	switch k {
	case PruneReg:
		return "reg"
	case PruneBit:
		return "bit"
	case PruneDUE:
		return "due"
	}
	return "none"
}

// GoldenError reports a fault-free run that did not complete.
type GoldenError struct{ Result machine.Result }

func (e *GoldenError) Error() string {
	return "faultinj: golden run failed: " + e.Result.Outcome.String() + " " + e.Result.Reason
}

// Injection is one sampled fault.
type Injection struct {
	Cycle uint64
	Bit   uint64
}

// TargetBits returns the injectable bit count of the target under this
// experiment's machine configuration. Counts are cached per target
// name; the first query for a target probes a single shared machine
// instance (bit counts are pure functions of the configuration).
func (e *Experiment) TargetBits(t Target) uint64 {
	e.bitsMu.Lock()
	defer e.bitsMu.Unlock()
	if bits, ok := e.bitCache[t.Name()]; ok {
		return bits
	}
	if e.probe == nil {
		e.probe = machine.New(e.Config, e.Program)
	}
	bits := t.Bits(e.probe)
	if e.bitCache == nil {
		e.bitCache = make(map[string]uint64)
	}
	e.bitCache[t.Name()] = bits
	return bits
}

// SampleError reports a target with no injectable (cycle x bit) space.
type SampleError struct {
	Target string
	Reason string
}

func (e *SampleError) Error() string {
	return "faultinj: cannot sample " + e.Target + ": " + e.Reason
}

// Sample draws n uniform (cycle, bit) faults for the target, following
// the statistical fault injection formulation of Leveugle et al. It
// returns a SampleError when the (cycle x bit) space is empty — a
// zero-bit target (e.g. a zero-entry queue configuration) or a golden
// run with zero cycles — instead of panicking inside the RNG.
func (e *Experiment) Sample(t Target, n int, seed int64) ([]Injection, error) {
	bits := e.TargetBits(t)
	if e.GoldenCycles == 0 {
		return nil, &SampleError{Target: t.Name(), Reason: "golden run has zero cycles"}
	}
	if bits == 0 {
		return nil, &SampleError{Target: t.Name(), Reason: "target has zero injectable bits"}
	}
	if n < 0 {
		n = 0
	}
	r := rand.New(rand.NewSource(seed))
	inj := make([]Injection, n)
	for i := range inj {
		inj[i] = Injection{
			Cycle: uint64(r.Int63n(int64(e.GoldenCycles))),
			Bit:   uint64(r.Int63n(int64(bits))),
		}
	}
	return inj, nil
}

// InjectResult is the classified outcome of one injection.
type InjectResult struct {
	Outcome    Outcome
	Reason     string
	Cycles     uint64
	Unexpected bool // assert came from a recovered non-modelled panic
	Pruned     bool // Masked proven statically; the run was never simulated
	// PruneKind records the proof granularity when Pruned is set
	// (PruneReg or PruneBit); PruneNone otherwise.
	PruneKind PruneKind
}

// Inject runs one end-to-end fault injection: the machine is
// fast-forwarded to the latest golden checkpoint at-or-before the
// injection cycle (or started fresh when checkpointing is disabled),
// the addressed bit is flipped at the chosen cycle, and the run is
// classified against the golden reference.
func (e *Experiment) Inject(t Target, inj Injection) InjectResult {
	return e.runInjection(inj, flipHook(t, inj))
}

// flipHook schedules a single-bit flip at the injection cycle.
func flipHook(t Target, inj Injection) machine.Hook {
	return machine.Hook{
		At: inj.Cycle,
		Fn: func(mm *machine.Machine) { t.Flip(mm, inj.Bit) },
	}
}

// hookFor schedules the model's bit flips at the injection cycle.
func hookFor(e *Experiment, t Target, inj Injection, model Model, bits uint64) machine.Hook {
	return machine.Hook{
		At: inj.Cycle,
		Fn: func(mm *machine.Machine) {
			for k := uint64(0); k < model.Width(); k++ {
				t.Flip(mm, (inj.Bit+k)%bits)
			}
		},
	}
}

// classify maps a simulation result to the paper's fault-effect classes.
func (e *Experiment) classify(res machine.Result) InjectResult {
	out := InjectResult{Reason: res.Reason, Cycles: res.Cycles, Unexpected: res.Unexpected}
	switch res.Outcome {
	case machine.OutcomeOK:
		if sameOutput(res.Output, e.GoldenOutput) {
			out.Outcome = Masked
		} else {
			out.Outcome = SDC
		}
	case machine.OutcomeCrash:
		out.Outcome = Crash
	case machine.OutcomeTimeout:
		out.Outcome = Timeout
	default:
		out.Outcome = Assert
	}
	return out
}

func sameOutput(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
