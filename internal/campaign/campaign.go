// Package campaign drives statistical fault-injection campaigns: for a
// (microarchitecture, benchmark, optimization level, structure field)
// cell it runs N independent end-to-end injections in parallel and
// aggregates the outcome counts. Campaigns can share one bounded Pool
// so a whole study saturates the machine with a single worker set
// instead of nested per-cell pools.
package campaign

import (
	"context"
	"runtime"
	"sync"

	"sevsim/internal/faultinj"
)

// Pool is a bounded worker pool for injection-sized tasks. One pool is
// shared across every campaign cell of a study: workers pull tasks from
// a single queue, so cores never idle while any cell still has work.
type Pool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (<= 0:
// GOMAXPROCS). Close must be called to release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func(), 4*workers)}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// Submit enqueues one task, blocking while the queue is full. Tasks
// must not Submit to or wait on the same pool, or workers can deadlock.
func (p *Pool) Submit(fn func()) { p.tasks <- fn }

// TrySubmit enqueues one task unless ctx is cancelled first; it reports
// whether the task was enqueued. Cancellation is checked before
// blocking, so a cancelled context never enqueues more work.
func (p *Pool) TrySubmit(ctx context.Context, fn func()) bool {
	if ctx.Err() != nil {
		return false
	}
	select {
	case p.tasks <- fn:
		return true
	case <-ctx.Done():
		return false
	}
}

// Close drains the queue and stops the workers after all submitted
// tasks have run. No Submit may follow or race with Close.
func (p *Pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// Counts aggregates outcomes of one campaign.
type Counts struct {
	Masked  int
	SDC     int
	Crash   int
	Timeout int
	Assert  int
	// Unexpected counts asserts that came from recovered simulator
	// panics rather than modelled invariant checks (should stay zero).
	Unexpected int
	// Pruned counts the outcomes that were proven statically and never
	// simulated. PrunedReg and PrunedBit split the provably-Masked
	// proofs by granularity — whole-register deadness vs bit-level
	// deadness of a live register — and are subsets of Masked;
	// PrunedDUE counts injections the propagation analysis proved
	// crash-certain, a subset of Crash. PrunedReg + PrunedBit +
	// PrunedDUE == Pruned when the pruner reports kinds; a plain
	// Pruner's proofs count as register-granular Masked.
	Pruned    int
	PrunedReg int
	PrunedBit int
	PrunedDUE int
}

// Total returns the number of injections behind the counts.
func (c Counts) Total() int {
	return c.Masked + c.SDC + c.Crash + c.Timeout + c.Assert
}

// Add accumulates one classified outcome.
func (c *Counts) Add(r faultinj.InjectResult) {
	switch r.Outcome {
	case faultinj.Masked:
		c.Masked++
	case faultinj.SDC:
		c.SDC++
	case faultinj.Crash:
		c.Crash++
	case faultinj.Timeout:
		c.Timeout++
	default:
		c.Assert++
	}
	if r.Unexpected {
		c.Unexpected++
	}
	if r.Pruned {
		c.Pruned++
		switch r.PruneKind {
		case faultinj.PruneBit:
			c.PrunedBit++
		case faultinj.PruneDUE:
			c.PrunedDUE++
		default:
			c.PrunedReg++
		}
	}
}

// Of returns the count of one outcome class.
func (c Counts) Of(o faultinj.Outcome) int {
	switch o {
	case faultinj.Masked:
		return c.Masked
	case faultinj.SDC:
		return c.SDC
	case faultinj.Crash:
		return c.Crash
	case faultinj.Timeout:
		return c.Timeout
	default:
		return c.Assert
	}
}

// Result is one campaign cell's outcome.
type Result struct {
	March  string
	Bench  string
	Level  string
	Target string

	Faults       int
	Counts       Counts
	GoldenCycles uint64
	StructBits   uint64

	// Skipped carries the reason when the cell could not be sampled
	// (e.g. a target with zero injectable bits); such cells report zero
	// faults instead of aborting the study.
	Skipped string `json:",omitempty"`

	// Interrupted is set when the campaign's context was cancelled
	// before every injection ran: Faults and Counts then cover only the
	// injections that completed. Interrupted cells are partial data and
	// are never journaled or saved by the study engine.
	Interrupted bool `json:",omitempty"`
}

// AVF returns the architectural vulnerability factor measured by the
// campaign: the probability that an injected fault was not masked.
func (r Result) AVF() float64 {
	if r.Faults == 0 {
		return 0
	}
	return float64(r.Faults-r.Counts.Masked) / float64(r.Faults)
}

// ClassRate returns the per-class vulnerability contribution (class
// count over total injections), so that the rates of the four
// non-masked classes sum to the AVF.
func (r Result) ClassRate(o faultinj.Outcome) float64 {
	if r.Faults == 0 {
		return 0
	}
	return float64(r.Counts.Of(o)) / float64(r.Faults)
}

// Options tunes a campaign run.
type Options struct {
	Faults      int
	Seed        int64
	Parallelism int // <= 0: GOMAXPROCS; ignored when Pool is set
	// Pool, when non-nil, is the shared worker pool the injections run
	// on; the cell then borrows study-wide workers instead of spawning
	// its own. When nil, Run uses a transient pool of Parallelism
	// workers, preserving the standalone behavior.
	Pool *Pool
	// Model selects the fault multiplicity (default single-bit).
	Model faultinj.Model
	// Pruner, when non-nil, is consulted before each injection: a fault
	// it proves masked is recorded as Masked (with Counts.Pruned
	// incremented) without running the simulation. Only single-bit
	// campaigns are pruned — the static argument covers one bit in one
	// physical register, so any wider Model bypasses the pruner.
	Pruner faultinj.Pruner
	// Context, when non-nil, makes the campaign cancellable: once it is
	// done, no further injections are dispatched, in-flight injections
	// finish, and the Result comes back with Interrupted set and counts
	// covering only the completed injections. A nil Context never
	// cancels, preserving the historical behavior.
	Context context.Context
}

// Run executes one campaign cell: Faults injections into target, in
// parallel, deterministically derived from Seed. Outcome counts are
// independent of worker count and scheduling order: injection i of a
// cell is fully determined by (Seed, i). When Options.Context is
// cancelled mid-campaign, dispatch stops, in-flight injections drain,
// and the partial Result is marked Interrupted.
func Run(exp *faultinj.Experiment, target faultinj.Target, opts Options) Result {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewPool(opts.Parallelism)
		defer pool.Close()
	}
	res := Result{
		Target:       target.Name(),
		GoldenCycles: exp.GoldenCycles,
		StructBits:   exp.TargetBits(target),
	}
	injections, err := exp.Sample(target, opts.Faults, opts.Seed)
	if err != nil {
		res.Skipped = err.Error()
		return res
	}
	outcomes := make([]faultinj.InjectResult, len(injections))
	ran := make([]bool, len(injections)) // outcome i was actually computed

	// Injections are dispatched in chunks of same-checkpoint faults:
	// each chunk runs on one batch (one held scratch machine), so every
	// restore after the chunk's first is a cache delta restore. Chunks
	// stay small enough that all workers get work even when one
	// checkpoint dominates the sample. Outcome i is still fully
	// determined by (Seed, i) — restores are bit-exact, so grouping and
	// scheduling cannot change any classification.
	const chunkSize = 32
	var wg sync.WaitGroup
dispatch:
	for _, group := range exp.BatchByCheckpoint(injections) {
		for start := 0; start < len(group); start += chunkSize {
			if ctx.Err() != nil {
				break dispatch
			}
			chunk := group[start:min(start+chunkSize, len(group))]
			wg.Add(1)
			ok := pool.TrySubmit(ctx, func() {
				defer wg.Done()
				// Queued-but-not-started chunks drain without running
				// once cancellation hits; a chunk already executing
				// finishes its current injection, then stops.
				b := exp.NewBatch()
				defer b.Close()
				for _, i := range chunk {
					if ctx.Err() != nil {
						return
					}
					if opts.Pruner != nil && opts.Model.Width() <= 1 {
						kind, reason := opts.Pruner.PrunableKind(target, injections[i])
						if kind != faultinj.PruneNone {
							// The proof class decides the synthetic
							// outcome: dead-value proofs are Masked,
							// crash-certain proofs are Crash.
							out := faultinj.Masked
							if kind == faultinj.PruneDUE {
								out = faultinj.Crash
							}
							outcomes[i] = faultinj.InjectResult{
								Outcome:   out,
								Reason:    "pruned: " + reason,
								Pruned:    true,
								PruneKind: kind,
							}
							ran[i] = true
							continue
						}
					}
					outcomes[i] = b.InjectModel(target, injections[i], opts.Model)
					ran[i] = true
				}
			})
			if !ok {
				wg.Done()
				break dispatch
			}
		}
	}
	wg.Wait()

	completed := 0
	for i := range outcomes {
		if ran[i] {
			res.Counts.Add(outcomes[i])
			completed++
		}
	}
	res.Faults = completed
	res.Interrupted = completed < len(injections)
	return res
}
