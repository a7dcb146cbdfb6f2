// Study-level parallel execution engine. Run pipelines the compile +
// golden-run preparation of every (march, bench, level) unit and
// dispatches every cell's injections onto one shared bounded worker
// pool, so cores stay busy across cell boundaries.
//
// Determinism: every result lands at the slice index the serial loop
// would have used, and every cell samples with the same cellSeed, so a
// saved study is byte-identical to a serial run regardless of
// Parallelism.
//
// Placement: every finished, quarantined or stuck cell goes to one
// Assembler as a CellOutcome — the same merge path RunCells outcomes
// take through the distributed coordinator — so a local study and a
// merged one are byte-identical by construction.
//
// Crash tolerance: with Spec.Journal set, every placed outcome is
// durably appended in placement order and replayed into the Assembler
// on restart, so a study killed at any point resumes where it left
// off and still saves byte-identical output. RunContext makes the
// whole engine cancellable (SIGINT flows in as context cancellation:
// dispatch stops, in-flight injections drain, the journal is flushed),
// and Spec.KeepGoing quarantines failed units into Study.Failed
// instead of aborting the run.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sevsim/internal/artcache"
	"sevsim/internal/binanalysis"
	"sevsim/internal/campaign"
	"sevsim/internal/compiler"
	"sevsim/internal/dispatch/backoff"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// compileUnit is the compile entry point, indirected so fault-tolerance
// tests can inject compile failures into chosen units.
var compileUnit = compiler.Compile

// reporter serializes progress lines so concurrent cells never
// interleave partial output.
type reporter struct {
	mu sync.Mutex
	fn func(format string, args ...any)
}

func (r *reporter) printf(format string, args ...any) {
	if r.fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fn(format, args...)
}

// prepUnit is one (march, bench, level) triple: a compile plus a golden
// run that gates the unit's campaign cells.
type prepUnit struct {
	cfg         machine.Config
	bench       workloads.Benchmark
	size        int
	level       compiler.OptLevel
	prune       bool
	retries     int
	checkpoints int
	noFastExit  bool
	analyses    *analysisCache  // shared across the study's prune units
	cache       *artcache.Cache // nil: prep directly, nothing persisted

	// idx is the unit's position in enumeration order: its cells sit
	// at flat indices idx*nt ... idx*nt+nt-1 of the study.
	idx int
	// want selects the unit's targets to campaign (parallel to the
	// spec's Targets): the selected cells the Assembler still lacks.
	want []bool

	// Retry pacing between failed preparation attempts: the shared
	// exponential-backoff policy, jittered from a deterministic
	// per-unit seed so retry schedules reproduce run to run.
	backoff backoff.Policy
	jitter  *backoff.Source

	exp      *faultinj.Experiment
	golden   Golden
	pruner   faultinj.Pruner // non-nil only for prune units
	static   StaticRF
	err      error
	stage    string // failing stage: "compile", "golden", "analyze"
	attempts int
	ready    chan struct{} // closed once exp/golden/err are final
}

// cell names the unit's cell for target t.
func (u *prepUnit) cell(t faultinj.Target) CellRef {
	return CellRef{March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(), Target: t.Name()}
}

// quarantine is the failure record of the unit (target "") or of one
// of its cells.
func (u *prepUnit) quarantine(target, stage, err string) Failure {
	return Failure{March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(), Target: target, Stage: stage, Err: err}
}

// run prepares the unit with up to retries extra attempts; a cancelled
// context short-circuits pending units. Attempts after the first wait
// out an exponential backoff with jitter (the shared
// internal/dispatch/backoff policy), so a transiently failing compile
// — a briefly full disk, an overloaded host — gets time to clear
// instead of burning every retry back to back.
func (u *prepUnit) run(ctx context.Context) {
	defer close(u.ready)
	for attempt := 0; ; attempt++ {
		u.attempts = attempt + 1
		if err := ctx.Err(); err != nil {
			u.err, u.stage = err, "cancelled"
			return
		}
		u.prepOnce()
		if u.err == nil || attempt >= u.retries {
			return
		}
		if err := u.backoff.Sleep(ctx, attempt, u.jitter); err != nil {
			u.err, u.stage = err, "cancelled"
			return
		}
	}
}

// prepOnce performs one compile + golden-run + (for prune units)
// analysis attempt, consulting the artifact cache when the study has
// one. Panics from any stage are recovered into errors so one bad unit
// cannot take down the study.
func (u *prepUnit) prepOnce() {
	u.err, u.exp, u.pruner = nil, nil, nil
	u.stage = "compile"
	defer func() {
		if r := recover(); r != nil {
			u.err = fmt.Errorf("%s %s %v for %s: panic: %v", u.stage, u.bench.Name, u.level, u.cfg.Name, r)
		}
	}()
	if u.cache == nil {
		u.prepDirect()
		return
	}
	u.prepCached()
}

// prepDirect is the uncached prep path: compile, golden passes, and
// analysis run in-process with nothing persisted.
func (u *prepUnit) prepDirect() {
	tgt := compilerTarget(u.cfg)
	prog, err := compileUnit(u.bench.Source(u.size), u.bench.Name, u.level, tgt)
	if err != nil {
		u.err = fmt.Errorf("compile %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
		return
	}
	u.stage = "golden"
	exp, err := faultinj.NewExperimentOptions(u.cfg, prog, faultinj.Options{
		Traced:      u.prune,
		Checkpoints: u.checkpoints,
		NoFastExit:  u.noFastExit,
	})
	if err != nil {
		u.err = fmt.Errorf("golden %s %v on %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
		return
	}
	u.finishPrep(prog, exp, nil)
}

// prepCached preps through the artifact cache: one unit per key builds
// the bundle (concurrent requesters share it via single-flight), and
// *both* hit and fill paths decode the serialized bundle, so a warm
// study runs its campaign from exactly the same decoded state a cold
// one does. A bundle that passed the cache's checksum but fails
// semantic validation here (stale layout, mismatched geometry) is
// dropped and rebuilt once before giving up.
func (u *prepUnit) prepCached() {
	src := u.bench.Source(u.size)
	key := u.cacheConfig(src).cacheKey()
	for attempt := 0; ; attempt++ {
		blob, err := u.cache.GetOrFill(key, func() ([]byte, error) {
			return u.buildBundle(src)
		})
		if err != nil {
			u.err = err
			return
		}
		u.stage = "golden"
		prog, art, static, err := decodePrepBundle(blob, u.cfg)
		if err == nil {
			var exp *faultinj.Experiment
			exp, err = faultinj.NewExperimentFromArtifacts(u.cfg, prog, art, faultinj.Options{NoFastExit: u.noFastExit})
			if err == nil {
				u.finishPrep(prog, exp, static)
				return
			}
		}
		u.cache.Drop(key)
		if attempt > 0 {
			u.err = fmt.Errorf("golden %s %v on %s: cached prep bundle unusable after rebuild: %w",
				u.bench.Name, u.level, u.cfg.Name, err)
			return
		}
	}
}

// buildBundle is the cache fill: it runs the full prep (compile,
// golden passes, analysis) and serializes the products. The experiment
// built here is closed — the caller decodes the bundle and rebuilds
// its own, keeping warm and cold paths structurally identical.
func (u *prepUnit) buildBundle(src string) ([]byte, error) {
	u.stage = "compile"
	tgt := compilerTarget(u.cfg)
	prog, err := compileUnit(src, u.bench.Name, u.level, tgt)
	if err != nil {
		return nil, fmt.Errorf("compile %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	u.stage = "golden"
	exp, err := faultinj.NewExperimentOptions(u.cfg, prog, faultinj.Options{
		Traced:      u.prune,
		Checkpoints: u.checkpoints,
		NoFastExit:  u.noFastExit,
	})
	if err != nil {
		return nil, fmt.Errorf("golden %s %v on %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	defer exp.Close()
	var static *StaticRF
	if u.prune {
		u.stage = "analyze"
		pr, err := u.buildPruner(prog, exp)
		if err != nil {
			return nil, err
		}
		s := staticOf(u.cfg, u.bench.Name, u.level, pr)
		static = &s
	}
	return encodePrepBundle(prog, exp.Artifacts(), static), nil
}

// finishPrep installs a prepared experiment and derives the unit's
// golden record, pruner, and static bound. static, when non-nil, is
// the cached bound (bit-identical to a fresh computation — the pruner
// bound is deterministic — so either source yields the same study).
func (u *prepUnit) finishPrep(prog *machine.Program, exp *faultinj.Experiment, static *StaticRF) {
	u.exp = exp
	u.golden = goldenOf(u.cfg, u.bench.Name, u.level, prog, exp)
	if !u.prune {
		return
	}
	u.stage = "analyze"
	pr, err := u.buildPruner(prog, exp)
	if err != nil {
		u.err = err
		return
	}
	u.pruner = pr
	if static != nil {
		u.static = *static
	} else {
		u.static = staticOf(u.cfg, u.bench.Name, u.level, pr)
	}
}

// buildPruner runs (or reuses, via the shared analysis cache) the
// binary ACE analysis and wraps it in the unit's three-way pruner.
func (u *prepUnit) buildPruner(prog *machine.Program, exp *faultinj.Experiment) (*binanalysis.DUEPruner, error) {
	tgt := compilerTarget(u.cfg)
	a, err := u.analyses.get(analysisKey{
		bench: u.bench.Name, size: u.size, level: u.level,
		xlen: tgt.XLEN, nregs: tgt.NumArchRegs,
	}, prog.Code)
	if err != nil {
		return nil, fmt.Errorf("analyze %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	pr, err := binanalysis.NewDUEPruner(a, exp)
	if err != nil {
		return nil, fmt.Errorf("pruner %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	return pr, nil
}

// staticOf renders a pruner's bound as the study's static RF record.
func staticOf(cfg machine.Config, bench string, level compiler.OptLevel, pr *binanalysis.DUEPruner) StaticRF {
	b := pr.Bound()
	return StaticRF{
		March: cfg.Name, Bench: bench, Level: level.String(),
		MaskedLB: b.MaskedLB, AVFUpperBound: b.AVFUpperBound,
		PrunableBits: b.PrunableBits, SpaceBits: b.SpaceBits,
		RegMaskedLB: b.RegMaskedLB, RegAVFUpperBound: 1 - b.RegMaskedLB,
		RegPrunableBits: b.RegPrunableBits,
		DueLB:           b.DueLB,
		SDCUpperBound:   b.SDCUpperBound,
		DuePrunableBits: b.DuePrunableBits,
	}
}

// analysisKey identifies one compiled binary: the compiler is
// deterministic, so units sharing (bench, size, level, target) share
// code and can share one static analysis. Two marches with the same
// XLEN and register count (or repeated preps after quarantine retries)
// hit the cache instead of re-running the CFG + fixpoints.
type analysisKey struct {
	bench string
	size  int
	level compiler.OptLevel
	xlen  int
	nregs int
}

// analysisCache deduplicates binanalysis.AnalyzeWords calls across the
// prep units of one study. Safe for concurrent use; each entry is
// computed exactly once even when two units race for it.
type analysisCache struct {
	mu sync.Mutex
	m  map[analysisKey]*analysisEntry
}

type analysisEntry struct {
	once sync.Once
	a    *binanalysis.Analysis
	err  error
}

func (c *analysisCache) get(key analysisKey, words []uint32) (*binanalysis.Analysis, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[analysisKey]*analysisEntry)
	}
	e := c.m[key]
	if e == nil {
		e = &analysisEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.a, e.err = binanalysis.AnalyzeWords(words) })
	return e.a, e.err
}

// isCancel reports whether err is context cancellation rather than a
// real failure.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// placer is a run's single merge point: every outcome goes to the
// Assembler and then to the journal under one lock, so the journal
// replays in the order the Assembler saw. The first failure to place
// or persist cancels the run (it must not outlive its durability
// guarantee) and is reported after the drain.
type placer struct {
	mu     sync.Mutex
	asm    *Assembler
	jn     *studyJournal
	cancel func()
	err    error
}

// place records o for unit u. An outcome of a prepared unit whose
// golden record is not yet placed carries it (and the static bound),
// so the unit's first journaled outcome restores its golden on replay.
func (p *placer) place(u *prepUnit, o CellOutcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if o.UnitFailure == nil && !p.asm.hasGolden(u.idx) {
		o.Golden = &u.golden
		if u.prune {
			o.Static = &u.static
		}
	}
	_, err := p.asm.Add(o)
	if err == nil {
		err = p.jn.appendOutcome(o)
	}
	if err != nil && p.err == nil {
		p.err = err
		p.cancel()
	}
}

// Run executes the study on a shared worker pool of Spec.Parallelism
// workers (<= 0: GOMAXPROCS). Compile and golden runs are pipelined
// with the injection campaigns: each unit's cells are dispatched the
// moment its golden run finishes, while other units are still
// preparing. Results are deterministic and identical to a serial
// (Parallelism: 1) run.
func (s Spec) Run() (*Study, error) { return s.RunContext(context.Background()) }

// RunContext is Run with cancellation and crash tolerance: cancelling
// ctx stops dispatching new work, drains in-flight injections, flushes
// the journal (Spec.Journal), and returns the context's error. A
// subsequent run with the same spec and journal resumes from the last
// durable record.
func (s Spec) RunContext(ctx context.Context) (*Study, error) {
	asm := NewAssembler(s)
	if err := s.run(ctx, asm, nil); err != nil {
		return nil, err
	}
	return asm.Study()
}

// selection picks a subset of a spec's campaign cells (keyed with an
// empty Target field never set). nil selects everything — the
// historical full-study behavior.
type selection map[cellKey]bool

// run is the engine shared by RunContext (sel nil: the whole study)
// and RunCells (sel restricts the work to the requested cells). It
// replays the journal into asm, prepares only the units with a
// selected cell asm still lacks, and places every outcome in asm.
func (s Spec) run(ctx context.Context, asm *Assembler, sel selection) error {
	// runCtx cancels the whole engine: external interruption, the first
	// failure in abort (non-KeepGoing) mode, or a placement error.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	rep := &reporter{fn: s.Progress}
	p := &placer{asm: asm, cancel: cancelRun}
	if s.Journal != "" {
		jn, err := openStudyJournal(s.Journal, s.fingerprint(), asm)
		if err != nil {
			return err
		}
		defer jn.close()
		p.jn = jn
		if n := asm.Done(); n > 0 {
			rep.printf("resume: %d/%d cells replayed from journal %s", n, asm.Total(), s.Journal)
		}
	}

	// Enumerate prep units in the serial loop's order; unit i owns flat
	// cells i*nt ... i*nt+nt-1. Only units with a wanted cell the
	// Assembler still lacks are prepared.
	nt := len(s.Targets)
	sizes := s.resolveSizes()
	analyses := &analysisCache{}
	var units []*prepUnit
	ui := 0
	for _, cfg := range s.Machines {
		for bi, bench := range s.Benchmarks {
			for _, level := range s.Levels {
				u := &prepUnit{
					cfg: cfg, bench: bench, size: sizes[bi], level: level,
					prune: s.Prune, retries: s.Retries, analyses: analyses,
					checkpoints: s.Checkpoints, noFastExit: s.NoFastExit,
					cache:   s.Cache,
					backoff: s.retryBackoff(),
					jitter:  backoff.NewSource(cellSeed(s.Seed, cfg.Name, bench.Name, level.String(), "retry-jitter")),
					ready:   make(chan struct{}),
					idx:     ui,
					want:    make([]bool, nt),
				}
				ui++
				any := false
				for ti, t := range s.Targets {
					u.want[ti] = (sel == nil || sel[u.cell(t).cell()]) && asm.pending(u.idx*nt+ti)
					any = any || u.want[ti]
				}
				f := asm.unitFailure(u.idx)
				switch {
				case any && f != nil:
					// Quarantined before the journal was cut short
					// (or by an earlier lease): the rest of the unit
					// takes the same placeholder, never a second
					// preparation that could succeed.
					for ti, t := range s.Targets {
						if u.want[ti] {
							p.place(u, placeholder(u.cell(t), *f))
						}
					}
				case any:
					units = append(units, u)
				}
			}
		}
	}

	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := campaign.NewPool(workers)
	defer pool.Close()

	// cellPanics collects recovered per-cell panics for abort mode, at
	// flat cell indices so the first one in enumeration order wins.
	cellPanics := make([]error, asm.Total())

	// Feed the preparation work through the same pool as the
	// injections: compiles and golden runs for later units overlap with
	// the campaigns of earlier ones. The feeder is its own goroutine
	// because Submit blocks when the queue is full. Tasks are always
	// enqueued (never dropped on cancellation) so every unit's ready
	// channel is guaranteed to close.
	go func() {
		for _, u := range units {
			u := u
			pool.Submit(func() { u.run(runCtx) })
		}
	}()

	// One lightweight orchestrator per unit waits for its prep, then
	// fans the unit's cells out onto the pool. Orchestrators and cell
	// goroutines only wait and place; all heavy work (simulation runs)
	// happens on pool workers, bounding CPU use at `workers`.
	var wg sync.WaitGroup
	for _, u := range units {
		wg.Add(1)
		go func(u *prepUnit) {
			defer wg.Done()
			<-u.ready
			if u.err != nil {
				if isCancel(u.err) {
					return
				}
				if !s.KeepGoing {
					cancelRun()
					return
				}
				f := u.quarantine("", u.stage, u.err.Error())
				f.Retries = u.attempts - 1
				for ti, t := range s.Targets {
					if u.want[ti] {
						p.place(u, placeholder(u.cell(t), f))
					}
				}
				rep.printf("FAILED %-16s %-9s %s: %s (quarantined after %d attempt(s))",
					u.cfg.Name, u.bench.Name, u.level, u.err, u.attempts)
				return
			}
			rep.printf("golden %-16s %-9s %s: %d cycles (IPC %.2f)",
				u.cfg.Name, u.bench.Name, u.level, u.exp.GoldenCycles, u.exp.GoldenStats.Stats.IPC())
			var cells sync.WaitGroup
			for ti, target := range s.Targets {
				if !u.want[ti] {
					continue // not selected, or replayed from the journal
				}
				cells.Add(1)
				go func(ti int, target faultinj.Target) {
					defer cells.Done()
					defer func() {
						if r := recover(); r != nil {
							err := fmt.Errorf("cell %s/%s/%s/%s: panic: %v",
								u.cfg.Name, u.bench.Name, u.level, target.Name(), r)
							if !s.KeepGoing {
								cellPanics[u.idx*nt+ti] = err
								cancelRun()
								return
							}
							p.place(u, placeholder(u.cell(target), u.quarantine(target.Name(), "cell", err.Error())))
						}
					}()
					// The watchdog: a per-cell deadline layered on the
					// study context. When it fires, the campaign drains
					// and reports Interrupted while the study is alive.
					cellCtx := runCtx
					cancelCell := func() {}
					if s.CellTimeout > 0 {
						cellCtx, cancelCell = context.WithTimeout(runCtx, s.CellTimeout)
					}
					defer cancelCell()
					r := campaign.Run(u.exp, target, campaign.Options{
						Faults:  s.Faults,
						Seed:    cellSeed(s.Seed, u.cfg.Name, u.bench.Name, u.level.String(), target.Name()),
						Pool:    pool,
						Pruner:  u.pruner,
						Context: cellCtx,
					})
					r.March = u.cfg.Name
					r.Bench = u.bench.Name
					r.Level = u.level.String()
					if r.Interrupted {
						if runCtx.Err() != nil {
							return // study-wide cancellation: drop the partial cell
						}
						// Watchdog expiry: quarantine the cell as stuck.
						f := u.quarantine(target.Name(), "cell", "exceeded per-cell wall-clock deadline")
						f.Stuck = true
						p.place(u, placeholder(u.cell(target), f))
						rep.printf("  %-16s %-9s %-2s %-9s STUCK after %d/%d injections (watchdog)",
							r.March, r.Bench, r.Level, r.Target, r.Faults, s.Faults)
						return
					}
					p.place(u, CellOutcome{Cell: u.cell(target), Result: r})
					rep.printf("  %-16s %-9s %-2s %-9s AVF %5.1f%%  (SDC %d, crash %d, timeout %d, assert %d)",
						r.March, r.Bench, r.Level, r.Target, r.AVF()*100, r.Counts.SDC, r.Counts.Crash,
						r.Counts.Timeout, r.Counts.Assert)
				}(ti, target)
			}
			cells.Wait()
			// Every cell of this unit is done: hand the unit's golden
			// checkpoint snapshots back to the buffer pools so the next
			// unit's checkpoints reuse them instead of allocating.
			u.exp.Close()
		}(u)
	}
	wg.Wait()

	// A run that stopped placing or persisting invalidates its
	// durability guarantee; surface it over everything else.
	if p.err != nil {
		return p.err
	}
	// Abort mode: the first failing unit or cell in enumeration order
	// determines the returned error, matching the serial loop.
	if !s.KeepGoing {
		for _, u := range units {
			if u.err != nil && !isCancel(u.err) {
				return u.err
			}
			for ti := 0; ti < nt; ti++ {
				if err := cellPanics[u.idx*nt+ti]; err != nil {
					return err
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("study interrupted (completed cells are journaled; rerun with the same spec and journal to resume): %w", err)
	}
	return nil
}

// retryBackoff resolves the preparation-retry pacing policy:
// Spec.RetryBackoff when set, else the shared default.
func (s Spec) retryBackoff() backoff.Policy {
	if s.RetryBackoff != nil {
		return *s.RetryBackoff
	}
	return backoff.Default
}
