package faultinj

// The injection hot path: checkpoint fast-forward, per-worker scratch
// machines, and the early-convergence Masked exit. Every injection used
// to build a fresh machine and simulate from cycle 0; with K golden
// checkpoints per cell an injection at cycle c now restores the latest
// checkpoint at-or-before c (removing ~(1 − 1/2K) of all pre-injection
// simulation across a uniform cycle sample) into a pooled scratch
// machine, and a post-flip run that provably returns to golden state is
// classified Masked at the first matching checkpoint instead of
// simulating its tail. Classifications are bit-identical with the
// optimizations on or off; see DESIGN.md §10 for the soundness
// argument.

import (
	"math"

	"sevsim/internal/machine"
)

// DefaultCheckpoints is the per-cell golden checkpoint budget when
// Options.Checkpoints is zero. An injection simulates about
// GoldenCycles/K cycles, so K sets the cost of every injection. 32
// checkpoints remove ~98% of pre-injection simulation, and the
// snapshots stay small because cache blocks and memory pages are
// copy-on-write: consecutive checkpoints share whatever did not change
// between them. The budget is a constant rather than a per-unit cost
// model because it is part of the prep-cache key, which must not
// depend on a study's faults or targets.
const DefaultCheckpoints = 32

// Options configures experiment preparation beyond the config/program
// pair.
type Options struct {
	// Traced records the golden commit stream, as NewTracedExperiment
	// does; see Experiment.Trace.
	Traced bool

	// Checkpoints is the golden checkpoint budget: 0 means
	// DefaultCheckpoints, a negative value disables checkpointing
	// entirely (every injection then builds a fresh machine and
	// simulates from cycle 0 — the reference behavior the equivalence
	// tests compare against).
	Checkpoints int

	// NoFastExit disables the early-convergence Masked exit while
	// keeping checkpoint fast-forward.
	NoFastExit bool
}

// cycleBudget is the simulation budget of one injection run:
// timeoutFactor times the golden run plus drain slack, saturating
// instead of wrapping for absurdly long goldens.
func (e *Experiment) cycleBudget() uint64 {
	const slack = 1000
	if e.GoldenCycles > (math.MaxUint64-slack)/timeoutFactor {
		return math.MaxUint64
	}
	return e.GoldenCycles*timeoutFactor + slack
}

// getMachine returns a pooled scratch machine for checkpointed
// injection runs; the caller restores a checkpoint over whatever state
// the machine retired with. Callers on the no-checkpoint reference
// path build fresh machines instead.
func (e *Experiment) getMachine() *machine.Machine {
	if m, _ := e.scratch.Get().(*machine.Machine); m != nil {
		return m
	}
	return machine.New(e.Config, e.Program)
}

// putMachine returns a scratch machine to the pool. It must not be
// called before the machine's Result has been fully consumed
// (Result.Output aliases the core's output buffer).
func (e *Experiment) putMachine(m *machine.Machine) {
	e.scratch.Put(m)
}

// runInjection executes one injection run with the given flip hook and
// classifies it, managing a scratch machine for just this run. Batched
// callers hold one machine across many runs instead (Batch).
func (e *Experiment) runInjection(inj Injection, hook machine.Hook) InjectResult {
	if e.ckpts == nil {
		// Reference behavior: a fresh machine simulating from cycle 0.
		return e.classify(machine.New(e.Config, e.Program).Run(e.cycleBudget(), hook))
	}
	m := e.getMachine()
	out := e.runInjectionOn(m, inj, hook)
	e.putMachine(m)
	return out
}

// runInjectionOn executes one checkpointed injection run on the given
// scratch machine: fast-forward restore, flip at the injection cycle,
// classify (with the early-convergence Masked exit when enabled). The
// machine must have been built from this experiment's Config/Program;
// its pre-call state is irrelevant — the restore overwrites it. Only
// valid with checkpointing on.
func (e *Experiment) runInjectionOn(m *machine.Machine, inj Injection, hook machine.Hook) InjectResult {
	m.Restore(e.ckpts.Latest(inj.Cycle))
	var watches []machine.Watch
	if e.fastExit {
		watches = e.ckpts.WatchesAfter(inj.Cycle)
	}
	res, converged := m.RunWatched(e.cycleBudget(), watches, hook)
	if converged {
		// State equality with golden at the same cycle proves the rest
		// of the run replays golden bit-for-bit: it would halt at
		// GoldenCycles with the golden output. Synthesize exactly the
		// result the full run would have produced.
		return InjectResult{Outcome: Masked, Cycles: e.GoldenCycles}
	}
	return e.classify(res)
}

// Batch runs a sequence of injections on one held scratch machine.
// Grouping a batch by fast-forward checkpoint (BatchByCheckpoint) makes
// every restore after the first a delta: the caches copy back only the
// lines the previous run touched, instead of their full arrays. A Batch
// is single-goroutine; concurrency comes from running many batches on a
// worker pool. Outcomes are bit-identical to calling Experiment.Inject
// per fault — restores are bit-exact, so machine reuse cannot leak
// state between runs.
type Batch struct {
	e *Experiment
	m *machine.Machine // nil when checkpointing is disabled
}

// NewBatch prepares a batch, drawing a scratch machine from the
// experiment's pool. Close must be called to return it.
func (e *Experiment) NewBatch() *Batch {
	b := &Batch{e: e}
	if e.ckpts != nil {
		b.m = e.getMachine()
	}
	return b
}

// Inject runs one single-bit injection on the batch's machine.
func (b *Batch) Inject(t Target, inj Injection) InjectResult {
	return b.run(inj, flipHook(t, inj))
}

// InjectModel is Inject under the given fault-multiplicity model.
func (b *Batch) InjectModel(t Target, inj Injection, model Model) InjectResult {
	if model == SingleBit {
		return b.Inject(t, inj)
	}
	return b.run(inj, hookFor(b.e, t, inj, model, b.e.TargetBits(t)))
}

func (b *Batch) run(inj Injection, hook machine.Hook) InjectResult {
	if b.m == nil {
		// Checkpointing disabled: the reference from-zero path, one
		// fresh machine per run (a recycled machine would need a way to
		// reset to cycle 0, which is exactly what checkpoints provide).
		return b.e.classify(machine.New(b.e.Config, b.e.Program).Run(b.e.cycleBudget(), hook))
	}
	return b.e.runInjectionOn(b.m, inj, hook)
}

// Close returns the batch's scratch machine to the experiment pool. No
// Inject may follow.
func (b *Batch) Close() {
	if b.m != nil {
		b.e.putMachine(b.m)
		b.m = nil
	}
}

// BatchByCheckpoint partitions injection indices into groups that
// fast-forward from the same checkpoint, preserving index order within
// each group (first-seen checkpoint order across groups, so the result
// is deterministic). Running a group as one Batch keeps the scratch
// machine's delta-restore base stable across the whole group. With
// checkpointing disabled all indices form one group — there is nothing
// to key on, and the grouping is only a scheduling hint.
func (e *Experiment) BatchByCheckpoint(inj []Injection) [][]int {
	if len(inj) == 0 {
		return nil
	}
	if e.ckpts == nil {
		all := make([]int, len(inj))
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	groups := map[int][]int{}
	var order []int
	for i, in := range inj {
		k := e.ckpts.LatestIndex(in.Cycle)
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

// Close releases the experiment's checkpoint snapshots back to their
// buffer pools. Call it only after every injection, batch, and watch
// using the experiment has finished. Injecting after Close remains
// correct — the experiment falls back to the from-zero reference path —
// but loses fast-forward, so treat Close as end-of-life.
func (e *Experiment) Close() {
	if e.ckpts != nil {
		e.ckpts.Release()
		e.ckpts = nil
	}
}
