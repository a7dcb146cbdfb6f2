package core

// Prep-artifact caching: a prepared unit (compiled binary, golden
// result, commit trace, checkpoint stream, static RF bound) is a pure
// function of the prep configuration, so it can be memoized on disk
// (internal/artcache) across studies, processes, and worker leases.
//
// The contract has two halves:
//
//   - The key (prepConfig.cacheKey) folds in *everything* that
//     determines the artifacts — full source text, machine config,
//     compiler target, optimization level, tracing, the checkpoint
//     budget, and the format/analysis versions. The cachekeycover lint
//     pass enforces completeness: every prepConfig field either feeds
//     cacheKey or carries a //cache:ephemeral annotation explaining
//     why the artifacts provably cannot depend on it.
//
//   - The bundle (encode/decodePrepBundle) round-trips bit-exactly:
//     a decoded checkpoint is strictly Equal to the recorded one, so
//     warm, cold, and disabled runs produce byte-identical studies.
//     To make that structural rather than hoped-for, the cold path
//     also decodes the bundle it just built — both paths run the
//     campaign from decoded state.

import (
	"encoding/json"
	"fmt"
	"math"

	"sevsim/internal/artcache"
	"sevsim/internal/binio"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

// prepBundleVersion is folded into every cache key. Bump it whenever
// the serialized layout of any component changes (machine.Snap,
// cpu.CoreState, mem slabs, the bundle itself) so stale entries miss
// instead of decoding garbage.
//
// Version 2: checkpoint streams encode cache snapshots as copy-on-write
// blocks, each shared with the previous snapshot where unchanged.
const prepBundleVersion = 2

// analysisVersion versions the binanalysis semantics behind the cached
// static RF bound. Bump it when the ACE analysis or the pruner bound
// computation changes.
//
// Version 2: fault-propagation (must-DUE) analysis added the DueLB /
// SDCUpperBound / DuePrunableBits bound fields, the static memory
// model refined store-data liveness, and the entry known-bits state
// anchors the stack pointer — all of which change the serialized
// static bound, so version-1 bundles must miss.
const analysisVersion = 2

// prepConfig is everything that determines one prep unit's artifacts.
// Every field must feed cacheKey or be annotated //cache:ephemeral
// with a reason (enforced by the cachekeycover lint pass).
type prepConfig struct {
	Version  int            // prepBundleVersion: serialized-format generation
	Analysis int            // analysisVersion: static-bound semantics generation
	Machine  machine.Config // full microarchitecture: golden run and checkpoints depend on all of it
	Bench    string
	Size     int
	Source   string // full source text, not just (bench, size): survives workload generator changes
	Level    string
	XLEN     int // compiler target, explicit even though derived from Machine:
	NumRegs  int // the compile contract is (source, level, XLEN, NumArchRegs)
	Traced   bool
	// Checkpoints is the resolved budget (DefaultCheckpoints applied,
	// negatives normalized), so spellings of the same budget share an
	// entry.
	Checkpoints int

	// NoFastExit shapes how injections *use* the checkpoint stream,
	// not what the stream contains: the golden passes and the recorded
	// artifacts are identical either way.
	//
	//cache:ephemeral fast-exit consumes artifacts, it does not shape them; both modes decode the same bundle
	NoFastExit bool
}

// cacheKey renders the canonical key string. The artifact cache hashes
// keys itself and echoes the full key inside each entry, so the key
// only needs to be canonical, not compact: JSON of a fixed field list
// is deterministic (no maps anywhere in machine.Config).
func (pc prepConfig) cacheKey() string {
	b, err := json.Marshal(struct {
		Version     int
		Analysis    int
		Machine     machine.Config
		Bench       string
		Size        int
		Source      string
		Level       string
		XLEN        int
		NumRegs     int
		Traced      bool
		Checkpoints int
	}{
		pc.Version, pc.Analysis, pc.Machine, pc.Bench, pc.Size,
		pc.Source, pc.Level, pc.XLEN, pc.NumRegs, pc.Traced, pc.Checkpoints,
	})
	if err != nil {
		// Plain structs of scalars, strings, and slices cannot fail to
		// marshal; a failure here is a programming error.
		panic(fmt.Sprintf("core: prep cache key: %v", err))
	}
	return "prep\x00" + string(b)
}

// cacheConfig assembles the unit's prep configuration.
func (u *prepUnit) cacheConfig(src string) prepConfig {
	k := resolveCheckpoints(u.checkpoints)
	tgt := compilerTarget(u.cfg)
	return prepConfig{
		Version:     prepBundleVersion,
		Analysis:    analysisVersion,
		Machine:     u.cfg,
		Bench:       u.bench.Name,
		Size:        u.size,
		Source:      src,
		Level:       u.level.String(),
		XLEN:        tgt.XLEN,
		NumRegs:     tgt.NumArchRegs,
		Traced:      u.prune,
		Checkpoints: k,
		NoFastExit:  u.noFastExit,
	}
}

// expConfig keys a prepared experiment by the exact binary rather than
// by (source, level): the CLI entry points that compile outside the
// standard pipeline (custom pass sets in sevablate, ad-hoc sources)
// still get golden-run and checkpoint caching this way. The full code
// is in the key — not a digest of it — so the cache's key echo turns
// even a hash collision into a miss.
type expConfig struct {
	Version     int
	Machine     machine.Config
	Name        string
	Code        []uint32
	Entry       uint64
	GlobalSize  uint64
	Traced      bool
	Checkpoints int

	// NoFastExit shapes artifact consumption, not content; see
	// prepConfig.
	//
	//cache:ephemeral fast-exit consumes artifacts, it does not shape them; both modes decode the same bundle
	NoFastExit bool
}

// cacheKey renders the canonical key string (see prepConfig.cacheKey).
func (ec expConfig) cacheKey() string {
	b, err := json.Marshal(struct {
		Version     int
		Machine     machine.Config
		Name        string
		Code        []uint32
		Entry       uint64
		GlobalSize  uint64
		Traced      bool
		Checkpoints int
	}{
		ec.Version, ec.Machine, ec.Name, ec.Code, ec.Entry,
		ec.GlobalSize, ec.Traced, ec.Checkpoints,
	})
	if err != nil {
		panic(fmt.Sprintf("core: experiment cache key: %v", err))
	}
	return "exp\x00" + string(b)
}

// resolveCheckpoints normalizes a checkpoint budget the way the
// experiment constructor does, so spellings of the same budget share a
// cache entry.
func resolveCheckpoints(k int) int {
	switch {
	case k == 0:
		return faultinj.DefaultCheckpoints
	case k < 0:
		return -1
	}
	return k
}

// CachedExperiment builds a prepared experiment for an
// already-compiled program, consulting cache when non-nil: a hit skips
// the golden simulation and the checkpoint recording pass. Cached and
// fresh experiments drive byte-identical campaigns. A nil cache simply
// constructs the experiment.
func CachedExperiment(cache *artcache.Cache, cfg machine.Config, prog *machine.Program, opts faultinj.Options) (*faultinj.Experiment, error) {
	if cache == nil {
		return faultinj.NewExperimentOptions(cfg, prog, opts)
	}
	key := expConfig{
		Version:     prepBundleVersion,
		Machine:     cfg,
		Name:        prog.Name,
		Code:        prog.Code,
		Entry:       prog.Entry,
		GlobalSize:  prog.GlobalSize,
		Traced:      opts.Traced,
		Checkpoints: resolveCheckpoints(opts.Checkpoints),
		NoFastExit:  opts.NoFastExit,
	}.cacheKey()
	for attempt := 0; ; attempt++ {
		blob, err := cache.GetOrFill(key, func() ([]byte, error) {
			exp, err := faultinj.NewExperimentOptions(cfg, prog, opts)
			if err != nil {
				return nil, err
			}
			defer exp.Close()
			return encodePrepBundle(prog, exp.Artifacts(), nil), nil
		})
		if err != nil {
			return nil, err
		}
		dprog, art, _, derr := decodePrepBundle(blob, cfg)
		if derr == nil {
			exp, aerr := faultinj.NewExperimentFromArtifacts(cfg, dprog, art, opts)
			if aerr == nil {
				return exp, nil
			}
			derr = aerr
		}
		cache.Drop(key)
		if attempt > 0 {
			return nil, fmt.Errorf("core: cached experiment unusable after rebuild: %w", derr)
		}
	}
}

const prepBundleMagic = "SEVPREP1"

// encodePrepBundle serializes a prepared unit's products: the program,
// the optional static RF bound, and the golden-run artifacts.
func encodePrepBundle(prog *machine.Program, art faultinj.Artifacts, static *StaticRF) []byte {
	var w binio.Writer
	w.Raw([]byte(prepBundleMagic))

	w.String(prog.Name)
	w.U64(prog.Entry)
	w.U64(prog.GlobalSize)
	w.Uvarint(uint64(len(prog.Code)))
	w.Grow(4 * len(prog.Code))
	for _, word := range prog.Code {
		w.U32(word)
	}

	w.Bool(static != nil)
	if static != nil {
		w.String(static.March)
		w.String(static.Bench)
		w.String(static.Level)
		w.U64(math.Float64bits(static.MaskedLB))
		w.U64(math.Float64bits(static.AVFUpperBound))
		w.U64(static.PrunableBits)
		w.U64(static.SpaceBits)
		w.U64(math.Float64bits(static.RegMaskedLB))
		w.U64(math.Float64bits(static.RegAVFUpperBound))
		w.U64(static.RegPrunableBits)
		w.U64(math.Float64bits(static.DueLB))
		w.U64(math.Float64bits(static.SDCUpperBound))
		w.U64(static.DuePrunableBits)
	}

	art.EncodeTo(&w)
	return w.Bytes()
}

// decodePrepBundle reads a bundle written by encodePrepBundle,
// validating every component against cfg. On success the caller owns
// the artifacts' checkpoint stream (NewExperimentFromArtifacts takes
// it over).
func decodePrepBundle(blob []byte, cfg machine.Config) (*machine.Program, faultinj.Artifacts, *StaticRF, error) {
	fail := func(err error) (*machine.Program, faultinj.Artifacts, *StaticRF, error) {
		return nil, faultinj.Artifacts{}, nil, err
	}
	r := binio.NewReader(blob)
	if string(r.Raw(len(prepBundleMagic))) != prepBundleMagic {
		return fail(fmt.Errorf("core: prep bundle: bad magic"))
	}

	prog := &machine.Program{}
	prog.Name = r.String()
	prog.Entry = r.U64()
	prog.GlobalSize = r.U64()
	n := int(r.Uvarint())
	if n < 0 || n > r.Len()/4 {
		return fail(fmt.Errorf("core: prep bundle: code length %d exceeds remaining input", n))
	}
	prog.Code = make([]uint32, n)
	for i := range prog.Code {
		prog.Code[i] = r.U32()
	}
	if err := r.Err(); err != nil {
		return fail(fmt.Errorf("core: prep bundle program: %w", err))
	}

	var static *StaticRF
	if r.Bool() {
		static = &StaticRF{
			March:            r.String(),
			Bench:            r.String(),
			Level:            r.String(),
			MaskedLB:         math.Float64frombits(r.U64()),
			AVFUpperBound:    math.Float64frombits(r.U64()),
			PrunableBits:     r.U64(),
			SpaceBits:        r.U64(),
			RegMaskedLB:      math.Float64frombits(r.U64()),
			RegAVFUpperBound: math.Float64frombits(r.U64()),
			RegPrunableBits:  r.U64(),
			DueLB:            math.Float64frombits(r.U64()),
			SDCUpperBound:    math.Float64frombits(r.U64()),
			DuePrunableBits:  r.U64(),
		}
	}
	if err := r.Err(); err != nil {
		return fail(fmt.Errorf("core: prep bundle static: %w", err))
	}

	art, err := faultinj.DecodeArtifacts(r, cfg)
	if err != nil {
		return fail(fmt.Errorf("core: prep bundle: %w", err))
	}
	if r.Len() != 0 {
		if art.Stream != nil {
			art.Stream.Release()
		}
		return fail(fmt.Errorf("core: prep bundle: %d trailing bytes", r.Len()))
	}
	return prog, art, static, nil
}
