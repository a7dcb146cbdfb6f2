// Command sevanalyze runs the binary-level ACE/liveness analyzer over
// study binaries: it reconstructs each binary's control-flow graph,
// computes per-instruction register liveness and value lifetimes,
// checks binary invariants, and (with -bounds) runs a zero-fault pruned
// study to derive the static lower bound on the Masked rate / upper
// bound on the AVF of the physical register file — the numbers a -prune
// injection campaign realizes without simulating, exactly as its
// study.json records them.
//
// Usage:
//
//	sevanalyze                                  # all 32 a15 binaries: invariants + bounds
//	sevanalyze -march a72 -bounds=false         # static-only pass, no simulation
//	sevanalyze -bench qsort -O O2 -dump cfg     # CFG of one binary
//	sevanalyze -bench sha -O O3 -dump live      # per-instruction liveness
//	sevanalyze -bench sha -O O3 -dump bits      # bit-granular dead masks
//	sevanalyze -bench fft -O O1 -dump lifetimes # value-lifetime histogram
//	sevanalyze -quick -golden cmd/sevanalyze/testdata/bounds_a15.golden
//	                                            # regression-check static bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sevsim/internal/artcache"
	"sevsim/internal/binanalysis"
	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/faultinj"
	"sevsim/internal/isa"
	"sevsim/internal/journal"
	"sevsim/internal/machine"
	"sevsim/internal/report"
	"sevsim/internal/workloads"
)

func main() {
	// An empty -bench or -O selects every benchmark or level.
	sf := cli.NewStudyFlags()
	sf.Level = ""
	sf.Register(flag.CommandLine, "march", "bench", "O", "size", "parallel", "cache", "cache-max-mb")
	quick := flag.Bool("quick", false, "use each benchmark's reduced test scale (fast golden runs, e.g. for -golden in CI)")
	bounds := flag.Bool("bounds", true, "run golden simulations and report static Masked/AVF bounds")
	dump := flag.String("dump", "", "detail dump for a single -bench/-O binary: cfg, live, bits, lifetimes")
	goldenPath := flag.String("golden", "", "compare the static bounds against this golden file and fail on drift")
	update := flag.Bool("update", false, "rewrite the -golden file with the current bounds instead of comparing")
	flag.Parse()

	cfg := sf.Machine()

	var benches []workloads.Benchmark
	if sf.Bench == "" {
		benches = workloads.All()
	} else {
		b, err := workloads.ByName(sf.Bench)
		if err != nil {
			cli.Fatal(err)
		}
		benches = []workloads.Benchmark{b}
	}
	levels := compiler.Levels
	if sf.Level != "" {
		levels = []compiler.OptLevel{sf.OptLevel()}
	}
	opts := suiteOptions{Size: sf.Size, Quick: *quick, Bounds: *bounds, Parallel: sf.Workers()}

	if *dump != "" {
		if len(benches) != 1 || len(levels) != 1 {
			cli.Fatal(fmt.Errorf("-dump needs a single binary: give both -bench and -O"))
		}
		prog, a, err := analyzeUnit(cfg, benches[0], levels[0], opts.size(benches[0]))
		if err != nil {
			cli.Fatal(err)
		}
		switch *dump {
		case "cfg":
			dumpCFG(prog.Name, a)
		case "live":
			dumpLiveness(a, cfg.CPU.NumArchRegs)
		case "bits":
			dumpBits(a, cfg.CPU.XLEN, cfg.CPU.NumArchRegs)
		case "lifetimes":
			dumpLifetimes(a)
		default:
			cli.Fatal(fmt.Errorf("unknown -dump %q (use cfg, live, bits, lifetimes)", *dump))
		}
		return
	}

	opts.Cache = sf.OpenCache()
	units, err := analyzeSuite(cfg, benches, levels, opts)
	if err != nil {
		cli.Fatal(err)
	}

	headers := []string{"benchmark", "level", "words", "blocks", "funcs", "dead-writes", "invariants"}
	if *bounds {
		headers = append(headers, "cycles", "reg Masked>=", "bit Masked>=", "DUE>=", "SDC<=", "static AVF<=")
	}
	rows := [][]string{}
	for _, u := range units {
		inv := "ok"
		if len(u.violations) > 0 {
			inv = fmt.Sprintf("%d violations", len(u.violations))
		}
		row := []string{u.bench.Name, u.level.String(),
			fmt.Sprint(u.words), fmt.Sprint(u.blocks), fmt.Sprint(u.funcs),
			fmt.Sprint(u.deadWrites), inv}
		if *bounds {
			row = append(row, fmt.Sprint(u.cycles),
				report.Pct(u.bound.RegMaskedLB), report.Pct(u.bound.MaskedLB),
				report.Pct(u.bound.DueLB), report.Pct(u.bound.SDCUpperBound),
				report.Pct(u.bound.AVFUpperBound))
		}
		rows = append(rows, row)
	}
	fmt.Printf("Static ACE analysis: %d binaries on %s\n", len(rows), cfg.Name)
	report.Table(os.Stdout, headers, rows)
	for _, u := range units {
		for _, v := range u.violations {
			fmt.Printf("%s %s: %s\n", u.bench.Name, u.level, v)
		}
	}

	if *goldenPath != "" {
		if !*bounds {
			cli.Fatal(fmt.Errorf("-golden needs -bounds"))
		}
		text := boundsText(cfg.Name, units)
		if *update {
			if err := journal.AtomicWriteFile(*goldenPath, []byte(text)); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("updated %s\n", *goldenPath)
			return
		}
		want, err := os.ReadFile(*goldenPath)
		if err != nil {
			cli.Fatal(fmt.Errorf("reading golden (run with -update to create it): %w", err))
		}
		if diff := diffLines(string(want), text); diff != "" {
			fmt.Fprintf(os.Stderr, "static bounds drifted from %s:\n%s", *goldenPath, diff)
			fmt.Fprintln(os.Stderr, "if the change is intended and sound, refresh with -update")
			os.Exit(1) //lint:exit process boundary: non-zero verdict on golden-bounds drift
		}
		fmt.Printf("static bounds match %s\n", *goldenPath)
	}
}

// unit is one (bench, level) analysis result.
type unit struct {
	bench workloads.Benchmark
	level compiler.OptLevel

	words      int
	blocks     int
	funcs      int
	deadWrites int
	violations []binanalysis.Violation
	bound      core.StaticRF
	cycles     uint64
}

type suiteOptions struct {
	Size     int  // explicit scale override (0 = benchmark default)
	Quick    bool // use each benchmark's TestSize
	Bounds   bool // run golden simulations for static bounds
	Parallel int
	Cache    *artcache.Cache // nil: golden runs are not memoized
}

// size is the benchmark scale a suite analyzes: an explicit Size, else
// TestSize under Quick, else the benchmark's default.
func (o suiteOptions) size(b workloads.Benchmark) int {
	switch {
	case o.Size > 0:
		return o.Size
	case o.Quick:
		return b.TestSize
	}
	return b.DefaultSize
}

// analyzeSuite compiles and analyzes every (bench, level) pair. With
// Bounds it takes each unit's golden cycles and static RF bound from a
// zero-fault pruned study, so they are exactly the Goldens and Static
// records a -prune study.json holds.
func analyzeSuite(cfg machine.Config, benches []workloads.Benchmark, levels []compiler.OptLevel, opts suiteOptions) ([]*unit, error) {
	var units []*unit
	for _, b := range benches {
		for _, l := range levels {
			prog, a, err := analyzeUnit(cfg, b, l, opts.size(b))
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", b.Name, l, err)
			}
			u := &unit{bench: b, level: l, words: len(prog.Code),
				blocks: len(a.CFG.Blocks), funcs: len(a.CFG.FuncEntries)}
			units = append(units, u)
			for _, lt := range a.Lifetimes {
				if lt.Uses == 0 {
					u.deadWrites++
				}
			}
			u.violations = binanalysis.CheckInvariants(a)
		}
	}
	if !opts.Bounds {
		return units, nil
	}
	rf, _ := faultinj.TargetByName("RF")
	st, err := core.Spec{
		Machines:    []machine.Config{cfg},
		Benchmarks:  benches,
		Levels:      levels,
		Targets:     []faultinj.Target{rf},
		Size:        opts.size,
		Prune:       true,
		Parallelism: opts.Parallel,
		Cache:       opts.Cache,
	}.Run()
	if err != nil {
		return nil, err
	}
	for i, u := range units {
		u.cycles = st.Goldens[i].Cycles
		u.bound = st.Static[i]
	}
	return units, nil
}

// boundsText renders the static bounds in the canonical golden-file
// format: one line per unit, fully deterministic (fixed order, fixed
// precision), so any transfer-function change that moves a bound —
// loosening precision or unsoundly tightening it — shows up as a
// byte-level diff.
func boundsText(march string, units []*unit) string {
	var b strings.Builder
	for _, u := range units {
		fmt.Fprintf(&b, "%s %s %s cycles=%d reg_masked_lb=%.9f bit_masked_lb=%.9f due_lb=%.9f sdc_ub=%.9f reg_prunable=%d bit_prunable=%d due_prunable=%d space=%d\n",
			march, u.bench.Name, u.level,
			u.cycles, u.bound.RegMaskedLB, u.bound.MaskedLB,
			u.bound.DueLB, u.bound.SDCUpperBound,
			u.bound.RegPrunableBits, u.bound.PrunableBits, u.bound.DuePrunableBits, u.bound.SpaceBits)
	}
	return b.String()
}

// diffLines reports the first divergent lines between two texts, or ""
// when identical.
func diffLines(want, got string) string {
	if want == got {
		return ""
	}
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	var b strings.Builder
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	shown := 0
	for i := 0; i < n && shown < 8; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&b, "  line %d:\n    golden: %s\n    got:    %s\n", i+1, w, g)
			shown++
		}
	}
	return b.String()
}

// analyzeUnit compiles one benchmark at one level and analyzes the
// binary.
func analyzeUnit(cfg machine.Config, b workloads.Benchmark, l compiler.OptLevel, size int) (*machine.Program, *binanalysis.Analysis, error) {
	prog, err := compiler.Compile(b.Source(size), b.Name, l, cli.Target(cfg))
	if err != nil {
		return nil, nil, err
	}
	a, err := binanalysis.AnalyzeWords(prog.Code)
	return prog, a, err
}

func dumpCFG(name string, a *binanalysis.Analysis) {
	g := a.CFG
	fmt.Printf("%s: %d instructions, %d blocks, %d function entries, %d return points\n",
		name, len(g.Code), len(g.Blocks), len(g.FuncEntries), len(g.RetPoints))
	for bi, b := range g.Blocks {
		attr := ""
		if b.IsRet {
			attr = " (return)"
		}
		if b.Unknown {
			attr = " (indirect: successors unknown)"
		}
		fmt.Printf("\nblock %d [%d,%d) -> %v%s\n", bi, b.Start, b.End, b.Succs, attr)
		for i := b.Start; i < b.End; i++ {
			fmt.Printf("  %4d  %s\n", i, g.Code[i])
		}
	}
}

func dumpLiveness(a *binanalysis.Analysis, nregs int) {
	for i, in := range a.CFG.Code {
		fmt.Printf("%4d  %-28s live-out %-30s dead %s\n",
			i, in.String(), a.LiveOut[i], a.DeadOut(i, nregs))
	}
}

// dumpBits prints the bit-granular dead masks: for each instruction,
// the fully dead registers (as in -dump live) plus every live register
// that still has individually dead bits, with the dead-bit mask in
// hex. These masks are exactly what BitPruner consults per injection.
func dumpBits(a *binanalysis.Analysis, xlen, nregs int) {
	b := a.Bits(xlen)
	hexDigits := (xlen + 3) / 4
	for i, in := range a.CFG.Code {
		var parts []string
		for r := uint8(1); int(r) < nregs; r++ {
			if !a.LiveOut[i].Has(r) {
				continue // whole register dead; shown in the dead set
			}
			if db := b.DeadOutBits(i, r); db != 0 {
				parts = append(parts, fmt.Sprintf("%s:%0*x", isa.RegName(r), hexDigits, db))
			}
		}
		fmt.Printf("%4d  %-28s dead %-24s dead-bits %s\n",
			i, in.String(), a.DeadOut(i, nregs), strings.Join(parts, " "))
	}
}

func dumpLifetimes(a *binanalysis.Analysis) {
	bounds, counts := binanalysis.LifetimeHistogram(a.Lifetimes)
	fmt.Printf("%d definition sites\n", len(a.Lifetimes))
	fmt.Println("def->furthest-use distance histogram (instructions over CFG edges):")
	for k := range bounds {
		label := fmt.Sprintf("= %d", bounds[k])
		if k >= 2 {
			label = fmt.Sprintf("<= %d", bounds[k])
		}
		if k == 0 {
			label = "dead"
		}
		fmt.Printf("  %-8s %6d\n", label, counts[k])
	}
	var longest binanalysis.Lifetime
	for _, lt := range a.Lifetimes {
		if lt.Dist > longest.Dist {
			longest = lt
		}
	}
	if longest.Dist > 0 {
		fmt.Printf("longest-lived value: %s defined at %d, furthest use %d instructions away (%d uses)\n",
			isa.RegName(longest.Reg), longest.DefIdx, longest.Dist, longest.Uses)
	}
}
