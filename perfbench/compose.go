package main

// The traced run composes each study from the public calls of every
// layer, in the order and grouping core.Spec.Run uses, and records a
// span around each call. Nothing inside the program is instrumented.
// The composed study must classify every cell exactly as Spec.Run
// does; the digest check holds it to that.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sevsim/internal/binanalysis"
	"sevsim/internal/binio"
	"sevsim/internal/campaign"
	"sevsim/internal/checkpoint"
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/cpu"
	"sevsim/internal/faultinj"
	"sevsim/internal/journal"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// chunkSize matches campaign.Run: same-checkpoint injections run in
// chunks of this many on one Batch.
const chunkSize = 32

// counters are the per-layer work counts of one composed study.
type counters struct {
	injections      atomic.Int64 // classified, simulated or pruned
	simulated       atomic.Int64
	goldenEndMasked atomic.Int64 // Masked, reported at the golden end cycle
	ffCycles        atomic.Int64 // checkpoint → flip cycles, simulated injections
	goldenCycles    atomic.Int64
	snapshots       atomic.Int64
	streamBytes     atomic.Int64
	codeWords       atomic.Int64
	pruneChecks     atomic.Int64
	prunedReg       atomic.Int64
	prunedBit       atomic.Int64
	prunedDUE       atomic.Int64
	fills           atomic.Int64
	fillBytes       atomic.Int64
	appends         atomic.Int64
}

// unit is one (march, bench, level) prep unit of a composed study.
type unit struct {
	cfg   machine.Config
	bench workloads.Benchmark
	size  int
	level compiler.OptLevel

	exp    *faultinj.Experiment
	pruner *binanalysis.DUEPruner
	golden core.Golden
	static core.StaticRF
	err    error
	ready  chan struct{}
}

// composer holds one composed study's shared state.
type composer struct {
	s           core.Spec
	checkpoints int // the spec's budget, resolved as the study engine does
	opts        faultinj.Options
	tr          *tracer
	c           *counters
	jn          *journal.Writer
	analyses    sync.Map // analysisKey → *analysisOnce
}

// resolveCheckpoints normalizes a checkpoint budget as the study
// engine does: 0 is faultinj.DefaultCheckpoints and any negative value
// turns checkpointing off.
func resolveCheckpoints(k int) int {
	switch {
	case k == 0:
		return faultinj.DefaultCheckpoints
	case k < 0:
		return -1
	}
	return k
}

// schedule is the unit's checkpoint cycles, nil when checkpointing is
// off.
func (cp *composer) schedule(goldenCycles uint64) []uint64 {
	if cp.checkpoints < 0 {
		return nil
	}
	return checkpoint.Cycles(goldenCycles, cp.checkpoints)
}

type analysisKey struct {
	bench       string
	size        int
	level       compiler.OptLevel
	xlen, nregs int
}

type analysisOnce struct {
	once sync.Once
	a    *binanalysis.Analysis
	err  error
}

// compose runs spec s through the composed pipeline and, when out is
// not empty, saves the study there. It returns the study and the
// layers' work counts. A nil tracer runs it untraced (the traced dist
// run fills its cache that way).
func compose(s core.Spec, tr *tracer, out string) (*core.Study, *counters, error) {
	start := int64(0)
	if tr != nil {
		start = tr.now()
	}
	cp := &composer{
		s: s, checkpoints: resolveCheckpoints(s.Checkpoints),
		opts: faultinj.Options{NoFastExit: s.NoFastExit}, tr: tr, c: &counters{},
	}
	if s.Journal != "" {
		w, _, err := journal.Open(s.Journal, journal.Options{})
		if err != nil {
			return nil, nil, err
		}
		defer w.Close()
		cp.jn = w
		if err := cp.appendRecord("meta", wireMeta(s)); err != nil {
			return nil, nil, err
		}
	}
	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := campaign.NewPool(workers)
	defer pool.Close()

	var units []*unit
	for _, cfg := range s.Machines {
		for _, b := range s.Benchmarks {
			for _, level := range s.Levels {
				size := b.DefaultSize
				if s.Size != nil {
					size = s.Size(b)
				}
				units = append(units, &unit{cfg: cfg, bench: b, size: size, level: level, ready: make(chan struct{})})
			}
		}
	}
	nt := len(s.Targets)
	st := newStudy(s, len(units))

	// Preps share the pool with the injections, fed from their own
	// goroutine because Submit blocks while the queue is full.
	go func() {
		for _, u := range units {
			u := u
			pool.Submit(func() {
				defer close(u.ready)
				cp.tr.do("core.prep", -1, func(id int) { u.err = cp.prep(u, id) })
			})
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, len(units)*nt+len(units))
	for ui, u := range units {
		wg.Add(1)
		go func(ui int, u *unit) {
			defer wg.Done()
			<-u.ready
			if u.err != nil {
				errs[ui] = u.err
				return
			}
			st.Goldens[ui] = u.golden
			var static *core.StaticRF
			if s.Prune {
				st.Static[ui] = u.static
				sc := u.static
				static = &sc
			}
			if err := cp.appendRecord("golden", struct {
				Golden core.Golden
				Static *core.StaticRF `json:",omitempty"`
			}{u.golden, static}); err != nil {
				errs[ui] = err
				return
			}
			var cells sync.WaitGroup
			for ti, t := range s.Targets {
				cells.Add(1)
				go func(ti int, t faultinj.Target) {
					defer cells.Done()
					r := cp.cell(pool, u, t)
					st.Results[ui*nt+ti] = r
					if err := cp.appendRecord("cell", r); err != nil {
						errs[len(units)+ui*nt+ti] = err
					}
				}(ti, t)
			}
			cells.Wait()
			u.exp.Close()
		}(ui, u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if out != "" {
		var err error
		cp.tr.do("core.save", -1, func(int) { err = st.Save(out) })
		if err != nil {
			return nil, nil, err
		}
	}
	if tr != nil {
		tr.record(span{Name: "core.study", Start: start, End: tr.now(), Parent: -1, Wait: true})
	}
	return st, cp.c, nil
}

// newStudy lays out an empty study for the spec, unit i owning
// Goldens[i] and Results[i*len(Targets):(i+1)*len(Targets)].
func newStudy(s core.Spec, nunits int) *core.Study {
	st := &core.Study{Faults: s.Faults}
	for _, m := range s.Machines {
		st.MachineNames = append(st.MachineNames, m.Name)
	}
	for _, b := range s.Benchmarks {
		st.BenchNames = append(st.BenchNames, b.Name)
	}
	for _, l := range s.Levels {
		st.LevelNames = append(st.LevelNames, l.String())
	}
	for _, t := range s.Targets {
		st.TargetNames = append(st.TargetNames, t.Name())
	}
	st.Goldens = make([]core.Golden, nunits)
	st.Results = make([]campaign.Result, nunits*len(s.Targets))
	if s.Prune {
		st.Static = make([]core.StaticRF, nunits)
	}
	return st
}

// wireMeta is the journal's leading record: the spec's fingerprint.
func wireMeta(s core.Spec) any {
	w := struct {
		Machines, Benches, Levels, Targets []string
		Sizes                              []int
		Faults                             int
		Seed                               int64
		Prune                              bool
	}{Faults: s.Faults, Seed: s.Seed, Prune: s.Prune}
	for _, m := range s.Machines {
		w.Machines = append(w.Machines, m.Name)
	}
	for _, b := range s.Benchmarks {
		w.Benches = append(w.Benches, b.Name)
		size := b.DefaultSize
		if s.Size != nil {
			size = s.Size(b)
		}
		w.Sizes = append(w.Sizes, size)
	}
	for _, l := range s.Levels {
		w.Levels = append(w.Levels, l.String())
	}
	for _, t := range s.Targets {
		w.Targets = append(w.Targets, t.Name())
	}
	return w
}

func (cp *composer) appendRecord(kind string, v any) error {
	if cp.jn == nil {
		return nil
	}
	var err error
	cp.tr.do("journal.append", -1, func(int) { err = cp.jn.Append(kind, v) })
	cp.c.appends.Add(1)
	return err
}

// prep readies one unit: straight through compile → golden →
// checkpoint recording, or through the prep cache when the spec has
// one.
func (cp *composer) prep(u *unit, parent int) error {
	if cp.s.Cache != nil {
		return cp.prepCached(u, parent)
	}
	prog, art, err := cp.build(u, parent)
	if err != nil {
		return err
	}
	// The stream's encoded size is measured here, where no cache entry
	// holds it; the work is tracing overhead.
	if art.Stream != nil {
		cp.tr.do("trace.measure", parent, func(int) {
			var w binio.Writer
			art.Stream.EncodeTo(&w)
			cp.c.streamBytes.Add(int64(len(w.Bytes())))
		})
	}
	return cp.finish(u, prog, art, nil, parent)
}

// build compiles the unit and records its golden run and checkpoints.
func (cp *composer) build(u *unit, parent int) (*machine.Program, faultinj.Artifacts, error) {
	tgt := compiler.Target{XLEN: u.cfg.CPU.XLEN, NumArchRegs: u.cfg.CPU.NumArchRegs}
	var prog *machine.Program
	var err error
	cp.tr.do("compiler.compile", parent, func(int) {
		prog, err = compiler.Compile(u.bench.Source(u.size), u.bench.Name, u.level, tgt)
	})
	if err != nil {
		return nil, faultinj.Artifacts{}, fmt.Errorf("compile %s %v for %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	cp.c.codeWords.Add(int64(len(prog.Code)))

	var res machine.Result
	var trace []cpu.CommitEvent
	cp.tr.do("machine.golden", parent, func(int) {
		m := machine.New(u.cfg, prog)
		if cp.s.Prune {
			trace = make([]cpu.CommitEvent, 0, 1024)
			m.Core.SetCommitHook(func(ev cpu.CommitEvent) { trace = append(trace, ev) })
		}
		res = m.Run(1 << 40)
	})
	if res.Outcome != machine.OutcomeOK {
		return nil, faultinj.Artifacts{}, &faultinj.GoldenError{Result: res}
	}
	cp.c.goldenCycles.Add(int64(res.Cycles))

	art := faultinj.Artifacts{Golden: res, Trace: trace}
	cycles := cp.schedule(res.Cycles)
	if len(cycles) == 0 {
		return prog, art, nil
	}
	var rec machine.Result
	cp.tr.do("checkpoint.record", parent, func(int) {
		art.Stream, rec = checkpoint.Record(machine.New(u.cfg, prog), 1<<40, cycles)
	})
	if rec.Outcome != machine.OutcomeOK || rec.Cycles != res.Cycles || !equalWords(rec.Output, res.Output) {
		return nil, faultinj.Artifacts{}, fmt.Errorf("checkpoint recording diverged from golden run for %s %v on %s", u.bench.Name, u.level, u.cfg.Name)
	}
	cp.c.snapshots.Add(int64(art.Stream.Len()))
	return prog, art, nil
}

func equalWords(a, b []uint64) bool {
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

// finish builds the unit's experiment from its artifacts, its golden
// record and, under Prune, its pruner and static bound. A non-nil
// static is the bound a cache entry carried.
func (cp *composer) finish(u *unit, prog *machine.Program, art faultinj.Artifacts, static *core.StaticRF, parent int) error {
	var err error
	cp.tr.do("faultinj.experiment", parent, func(int) {
		u.exp, err = faultinj.NewExperimentFromArtifacts(u.cfg, prog, art, cp.opts)
	})
	if err != nil {
		return err
	}
	u.golden = goldenOf(u.cfg, u.bench.Name, u.level, prog, u.exp)
	if !cp.s.Prune {
		return nil
	}
	if u.pruner, err = cp.pruner(u, prog, u.exp, parent); err != nil {
		return err
	}
	if static != nil {
		u.static = *static
	} else {
		cp.tr.do("binanalysis.bound", parent, func(int) { u.static = staticOf(u.cfg, u.bench.Name, u.level, u.pruner) })
	}
	return nil
}

// pruner runs the binary analysis once per compiled binary, as the
// scheduler's analysis cache does, and builds the unit's DUE pruner.
func (cp *composer) pruner(u *unit, prog *machine.Program, exp *faultinj.Experiment, parent int) (*binanalysis.DUEPruner, error) {
	key := analysisKey{u.bench.Name, u.size, u.level, u.cfg.CPU.XLEN, u.cfg.CPU.NumArchRegs}
	v, _ := cp.analyses.LoadOrStore(key, &analysisOnce{})
	e := v.(*analysisOnce)
	e.once.Do(func() {
		cp.tr.do("binanalysis.analyze", parent, func(int) { e.a, e.err = binanalysis.AnalyzeWords(prog.Code) })
	})
	if e.err != nil {
		return nil, e.err
	}
	var pr *binanalysis.DUEPruner
	var err error
	cp.tr.do("binanalysis.pruner", parent, func(int) { pr, err = binanalysis.NewDUEPruner(e.a, exp) })
	return pr, err
}

// prepCached mirrors the study engine's cached prep: artcache's
// GetOrFill returns the unit's bundle, building it on a miss from the
// unit and its static bound; hit and miss alike then decode the bundle
// and prepare from decoded state. The artifacts inside the bundle go
// through the program's own codec (faultinj.Artifacts.EncodeTo and
// DecodeArtifacts); the key and the short header holding the program
// words and the static bound are the benchmark's, as core keeps its
// own unexported.
func (cp *composer) prepCached(u *unit, parent int) error {
	var blob []byte
	var err error
	filled := false
	cp.tr.do("artcache.get", parent, func(id int) {
		blob, err = cp.s.Cache.GetOrFill(cp.bundleKey(u), func() ([]byte, error) {
			filled = true
			cp.tr.rename(id, "artcache.fill")
			return cp.fill(u, id)
		})
	})
	if err != nil {
		return err
	}
	name := "artcache.get"
	if filled {
		name = "artcache.fill"
		cp.c.fills.Add(1)
		cp.c.fillBytes.Add(int64(len(blob)))
	}
	var prog *machine.Program
	var art faultinj.Artifacts
	var static *core.StaticRF
	cp.tr.do(name, parent, func(int) { prog, art, static, err = decodeBundle(blob, u.cfg) })
	if err != nil {
		return fmt.Errorf("prep bundle for %s %v on %s: %w", u.bench.Name, u.level, u.cfg.Name, err)
	}
	return cp.finish(u, prog, art, static, parent)
}

// fill builds a unit's bundle on a cache miss: the unit's artifacts
// and, under Prune, its static bound.
func (cp *composer) fill(u *unit, parent int) ([]byte, error) {
	prog, art, err := cp.build(u, parent)
	if err != nil {
		return nil, err
	}
	if art.Stream != nil {
		defer art.Stream.Release()
	}
	var static *core.StaticRF
	if cp.s.Prune {
		var exp *faultinj.Experiment
		cp.tr.do("faultinj.experiment", parent, func(int) {
			exp, err = faultinj.NewExperimentFromArtifacts(u.cfg, prog, art, cp.opts)
		})
		if err != nil {
			return nil, err
		}
		pr, err := cp.pruner(u, prog, exp, parent)
		if err != nil {
			return nil, err
		}
		var s core.StaticRF
		cp.tr.do("binanalysis.bound", parent, func(int) { s = staticOf(u.cfg, u.bench.Name, u.level, pr) })
		static = &s
	}
	blob := encodeBundle(prog, art, static)
	// The stream's share of the entry is what the entry loses without
	// it; the work is tracing overhead.
	cp.tr.do("trace.measure", parent, func(int) {
		rest := encodeBundle(prog, faultinj.Artifacts{Golden: art.Golden, Trace: art.Trace}, static)
		cp.c.streamBytes.Add(int64(len(blob) - len(rest)))
	})
	return blob, nil
}

// bundleKey names a unit's entry: everything its artifacts depend on.
// The benchmark keeps its own entries, beside any the program writes,
// so it never depends on the program's key format.
func (cp *composer) bundleKey(u *unit) string {
	h := fnv.New64a()
	h.Write([]byte(u.bench.Source(u.size)))
	return fmt.Sprintf("perfbench-bundle-v2\x00%s\x00%s\x00%d\x00%s\x00%x\x00traced=%t\x00checkpoints=%d",
		u.cfg.Name, u.bench.Name, u.size, u.level, h.Sum64(), cp.s.Prune, cp.checkpoints)
}

// encodeBundle serializes the program, the static bound and the
// artifacts.
func encodeBundle(prog *machine.Program, art faultinj.Artifacts, static *core.StaticRF) []byte {
	var w binio.Writer
	w.String(prog.Name)
	w.U64(prog.Entry)
	w.U64(prog.GlobalSize)
	w.Uvarint(uint64(len(prog.Code)))
	for _, word := range prog.Code {
		w.U32(word)
	}
	js, _ := json.Marshal(static) // plain struct of numbers and strings; cannot fail
	w.String(string(js))
	art.EncodeTo(&w)
	return w.Bytes()
}

func decodeBundle(blob []byte, cfg machine.Config) (*machine.Program, faultinj.Artifacts, *core.StaticRF, error) {
	r := binio.NewReader(blob)
	prog := &machine.Program{Name: r.String(), Entry: r.U64(), GlobalSize: r.U64()}
	n := int(r.Uvarint())
	if n < 0 || n > r.Len()/4 {
		return nil, faultinj.Artifacts{}, nil, fmt.Errorf("code length %d exceeds the bundle", n)
	}
	prog.Code = make([]uint32, n)
	for i := range prog.Code {
		prog.Code[i] = r.U32()
	}
	js := r.String()
	if err := r.Err(); err != nil {
		return nil, faultinj.Artifacts{}, nil, err
	}
	var static *core.StaticRF
	if err := json.Unmarshal([]byte(js), &static); err != nil {
		return nil, faultinj.Artifacts{}, nil, err
	}
	art, err := faultinj.DecodeArtifacts(r, cfg)
	if err != nil {
		return nil, faultinj.Artifacts{}, nil, err
	}
	return prog, art, static, nil
}

// cell runs one campaign cell the way campaign.Run does: sample,
// group by checkpoint, and run chunks of each group on one Batch
// through the shared pool.
func (cp *composer) cell(pool *campaign.Pool, u *unit, t faultinj.Target) campaign.Result {
	exp := u.exp
	res := campaign.Result{
		March: u.cfg.Name, Bench: u.bench.Name, Level: u.level.String(), Target: t.Name(),
		GoldenCycles: exp.GoldenCycles,
		StructBits:   exp.TargetBits(t),
	}
	start := int64(0)
	if cp.tr != nil {
		start = cp.tr.now()
	}
	var injections []faultinj.Injection
	var err error
	seed := cellSeed(cp.s.Seed, u.cfg.Name, u.bench.Name, u.level.String(), t.Name())
	cp.tr.do("faultinj.sample", -1, func(int) { injections, err = exp.Sample(t, cp.s.Faults, seed) })
	if err != nil {
		res.Skipped = err.Error()
		return res
	}
	schedule := cp.schedule(exp.GoldenCycles)
	outcomes := make([]faultinj.InjectResult, len(injections))
	var wg sync.WaitGroup
	for _, group := range exp.BatchByCheckpoint(injections) {
		for lo := 0; lo < len(group); lo += chunkSize {
			chunk := group[lo:min(lo+chunkSize, len(group))]
			wg.Add(1)
			pool.Submit(func() {
				defer wg.Done()
				cp.tr.do("campaign.chunk", -1, func(id int) {
					b := exp.NewBatch()
					defer b.Close()
					for _, i := range chunk {
						outcomes[i] = cp.inject(b, u, t, injections[i], schedule, id)
					}
				})
			})
		}
	}
	wg.Wait()
	for _, o := range outcomes {
		res.Counts.Add(o)
	}
	res.Faults = len(injections)
	if cp.tr != nil {
		cp.tr.record(span{Name: "campaign.cell", Start: start, End: cp.tr.now(), Parent: -1, Wait: true})
	}
	return res
}

// inject classifies one fault: pruned when the unit's pruner proves
// its outcome, simulated on the batch otherwise.
func (cp *composer) inject(b *faultinj.Batch, u *unit, t faultinj.Target, inj faultinj.Injection, schedule []uint64, parent int) faultinj.InjectResult {
	cp.c.injections.Add(1)
	if u.pruner != nil {
		var kind faultinj.PruneKind
		var reason string
		cp.tr.do("binanalysis.prune_check", parent, func(int) { kind, reason = u.pruner.PrunableKind(t, inj) })
		cp.c.pruneChecks.Add(1)
		if kind != faultinj.PruneNone {
			out := faultinj.Masked
			switch kind {
			case faultinj.PruneDUE:
				out = faultinj.Crash
				cp.c.prunedDUE.Add(1)
			case faultinj.PruneBit:
				cp.c.prunedBit.Add(1)
			default:
				cp.c.prunedReg.Add(1)
			}
			return faultinj.InjectResult{Outcome: out, Reason: "pruned: " + reason, Pruned: true, PruneKind: kind}
		}
	}
	var r faultinj.InjectResult
	cp.tr.do("faultinj.inject", parent, func(int) { r = b.Inject(t, inj) })
	cp.c.simulated.Add(1)
	// Without a checkpoint at or before the flip, the run starts from
	// cycle 0.
	from := uint64(0)
	if k := sort.Search(len(schedule), func(i int) bool { return schedule[i] > inj.Cycle }) - 1; k >= 0 {
		from = schedule[k]
	}
	cp.c.ffCycles.Add(int64(inj.Cycle - from))
	if r.Outcome == faultinj.Masked && r.Cycles == u.exp.GoldenCycles {
		cp.c.goldenEndMasked.Add(1)
	}
	return r
}

// cellSeed derives a cell's sampling seed from the study seed exactly
// as the study engine does, so composed cells sample the same faults.
func cellSeed(master int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return master ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// goldenOf builds the study's golden record from an experiment, with
// the fields the study engine fills.
func goldenOf(cfg machine.Config, bench string, level compiler.OptLevel, prog *machine.Program, exp *faultinj.Experiment) core.Golden {
	stats := exp.GoldenStats.Stats
	cyc := float64(stats.Cycles)
	l1d := exp.GoldenStats.L1D
	missRate := 0.0
	if l1d.Hits+l1d.Misses > 0 {
		missRate = float64(l1d.Misses) / float64(l1d.Hits+l1d.Misses)
	}
	return core.Golden{
		March: cfg.Name, Bench: bench, Level: level.String(),
		Cycles: stats.Cycles, CodeWords: len(prog.Code), Committed: stats.Committed,
		IPC: stats.IPC(), Mispredicts: stats.Mispredicts, L1DMissRate: missRate,
		AvgPRFLive: float64(stats.PRFLive) / cyc, AvgROBOcc: float64(stats.ROBOccupancy) / cyc,
		AvgIQOcc: float64(stats.IQOccupancy) / cyc, AvgLQOcc: float64(stats.LQOccupancy) / cyc,
		AvgSQOcc: float64(stats.SQOccupancy) / cyc,
	}
}

// staticOf renders a pruner's bound as the study's static record.
func staticOf(cfg machine.Config, bench string, level compiler.OptLevel, pr *binanalysis.DUEPruner) core.StaticRF {
	b := pr.Bound()
	return core.StaticRF{
		March: cfg.Name, Bench: bench, Level: level.String(),
		MaskedLB: b.MaskedLB, AVFUpperBound: b.AVFUpperBound,
		PrunableBits: b.PrunableBits, SpaceBits: b.SpaceBits,
		RegMaskedLB: b.RegMaskedLB, RegAVFUpperBound: 1 - b.RegMaskedLB,
		RegPrunableBits: b.RegPrunableBits,
		DueLB:           b.DueLB, SDCUpperBound: b.SDCUpperBound,
		DuePrunableBits: b.DuePrunableBits,
	}
}
