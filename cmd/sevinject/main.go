// Command sevinject runs one statistical fault-injection campaign: N
// single-bit faults into one hardware structure field while the chosen
// benchmark binary executes, with per-class outcome rates and the
// statistical error margin.
//
// Usage:
//
//	sevinject -bench qsort -O O2 -march a15 -target RF -faults 2000
//	sevinject -bench sha -O O0 -march a72 -target L1D.data -faults 500
//	sevinject -bench gsm -O O1 -march a15 -all -faults 200
package main

import (
	"flag"
	"fmt"
	"os"

	"sevsim/internal/binanalysis"
	"sevsim/internal/campaign"
	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/faultinj"
	"sevsim/internal/stats"
)

func main() {
	sf := cli.NewStudyFlags()
	sf.Register(flag.CommandLine, "bench", "src", "size", "O", "march", "faults", "seed",
		"parallel", "prune", "checkpoints", "cache", "cache-max-mb")
	targetFlag := flag.String("target", "RF", "structure field (e.g. RF, L1D.data, ROB.pc)")
	all := flag.Bool("all", false, "inject into every structure field")
	modelFlag := flag.String("model", "single", "fault model: single, double, quad (multi-bit upsets)")
	flag.Parse()

	cfg := sf.Machine()
	level := sf.OptLevel()
	name, src := sf.Source()
	prog, err := compiler.Compile(src, name, level, cli.Target(cfg))
	if err != nil {
		cli.Fatal(err)
	}
	cache := sf.OpenCache()
	exp, err := core.CachedExperiment(cache, cfg, prog, faultinj.Options{
		Traced:      sf.Prune,
		Checkpoints: sf.CheckpointBudget(),
	})
	if err != nil {
		cli.Fatal(err)
	}
	var pruner faultinj.Pruner
	if sf.Prune {
		a, err := binanalysis.AnalyzeWords(prog.Code)
		if err != nil {
			cli.Fatal(err)
		}
		bp, err := binanalysis.NewDUEPruner(a, exp)
		if err != nil {
			cli.Fatal(err)
		}
		pruner = bp
		b := bp.Bound()
		fmt.Printf("static RF bound: Masked >= %.2f%% (register-granular %.2f%%), DUE >= %.2f%%, SDC <= %.2f%%\n",
			b.MaskedLB*100, b.RegMaskedLB*100, b.DueLB*100, b.SDCUpperBound*100)
	}
	model := faultinj.SingleBit
	switch *modelFlag {
	case "single":
	case "double":
		model = faultinj.DoubleAdjacent
	case "quad":
		model = faultinj.QuadAdjacent
	default:
		cli.Fatal(fmt.Errorf("unknown fault model %q", *modelFlag))
	}
	fmt.Printf("%s %s on %s: golden run %d cycles, %d outputs, %s faults\n",
		name, level, cfg.Name, exp.GoldenCycles, len(exp.GoldenOutput), model)

	var targets []faultinj.Target
	if *all {
		targets = faultinj.Targets()
	} else {
		t, ok := faultinj.TargetByName(*targetFlag)
		if !ok {
			cli.Fatal(fmt.Errorf("unknown target %q", *targetFlag))
		}
		targets = []faultinj.Target{t}
	}

	// One shared worker pool serves every target's campaign, so the
	// machine stays saturated across target boundaries. Ctrl-C drains
	// in-flight injections and reports the partial campaign.
	pool := campaign.NewPool(sf.Workers())
	defer pool.Close()
	ctx, stop := cli.Interruptible()
	defer stop()

	interrupted := false
	fmt.Printf("\n%-10s %8s %8s  %7s %7s %7s %7s %7s\n",
		"target", "bits", "faults", "AVF", "SDC", "Crash", "Timeout", "Assert")
	for _, t := range targets {
		r := campaign.Run(exp, t, campaign.Options{
			Faults: sf.Faults, Seed: sf.Seed, Pool: pool, Model: model, Pruner: pruner,
			Context: ctx,
		})
		if r.Interrupted {
			interrupted = true
			fmt.Printf("%-10s %8d  interrupted after %d/%d injections\n",
				t.Name(), r.StructBits, r.Faults, sf.Faults)
			continue
		}
		if r.Skipped != "" {
			fmt.Printf("%-10s %8d  skipped: %s\n", t.Name(), r.StructBits, r.Skipped)
			continue
		}
		fmt.Printf("%-10s %8d %8d  %6.2f%% %6.2f%% %6.2f%% %6.2f%% %6.2f%%\n",
			t.Name(), r.StructBits, r.Faults,
			r.AVF()*100,
			r.ClassRate(faultinj.SDC)*100,
			r.ClassRate(faultinj.Crash)*100,
			r.ClassRate(faultinj.Timeout)*100,
			r.ClassRate(faultinj.Assert)*100)
		if r.Counts.Pruned > 0 {
			fmt.Printf("  pruned: %d/%d proven statically (%d register-granular + %d bit-granular Masked, %d crash-certain DUE; never simulated)\n",
				r.Counts.Pruned, r.Faults, r.Counts.PrunedReg, r.Counts.PrunedBit, r.Counts.PrunedDUE)
		}
		if r.Counts.Unexpected > 0 {
			fmt.Printf("  WARNING: %d unexpected simulator panics\n", r.Counts.Unexpected)
		}
	}
	cli.CacheSummary(cache)
	margin := stats.ErrorMargin(sf.Faults, 1<<40, 0.99)
	fmt.Printf("\nsampling error margin: ±%.2f%% at 99%% confidence\n", margin*100)
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: partial campaigns above cover only the completed injections")
		os.Exit(cli.ExitInterrupted) //lint:exit process boundary: interrupted-run exit after partial campaigns are printed
	}
}
