// Command sevablate implements the paper's stated future work: it
// characterizes the impact of *individual* optimizations (rather than
// whole -O levels) on performance and on a hardware structure's
// vulnerability. Starting from a level's full pass set, it disables one
// optimization at a time and re-measures.
//
// Usage:
//
//	sevablate -bench gsm -O O2 -march a72
//	sevablate -bench qsort -O O3 -march a15 -target RF -faults 300
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"sevsim/internal/campaign"
	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/core"
	"sevsim/internal/faultinj"
	"sevsim/internal/machine"
)

func main() {
	sf := cli.NewStudyFlags()
	sf.March, sf.Bench, sf.Faults = "a72", "gsm", 200
	sf.Register(flag.CommandLine, "bench", "src", "size", "O", "march", "faults", "seed",
		"parallel", "checkpoints", "cache", "cache-max-mb")
	targetFlag := flag.String("target", "", "also measure this structure's AVF (e.g. RF)")
	flag.Parse()

	cfg := sf.Machine()
	level := sf.OptLevel()
	name, src := sf.Source()
	tgt := cli.Target(cfg)
	base := compiler.LevelPasses(level, tgt)
	cache := sf.OpenCache()

	var avfTarget *faultinj.Target
	if *targetFlag != "" {
		t, ok := faultinj.TargetByName(*targetFlag)
		if !ok {
			cli.Fatal(fmt.Errorf("unknown target %q", *targetFlag))
		}
		avfTarget = &t
	}

	type row struct {
		label  string
		ps     compiler.PassSet
		active bool
	}
	rows := []row{{label: "full " + level.String(), ps: base, active: true}}
	for _, pass := range compiler.PassNames() {
		reduced := base.Without(pass)
		if reduced == base {
			continue // pass not in this level's set
		}
		rows = append(rows, row{label: "  - " + pass, ps: reduced, active: true})
	}

	fmt.Printf("%s on %s, baseline %s\n\n", name, cfg.Name, level)
	fmt.Printf("%-16s %10s %8s %9s", "configuration", "cycles", "vs full", "code")
	if avfTarget != nil {
		fmt.Printf(" %12s", avfTarget.Name()+" AVF")
	}
	fmt.Println()

	// Rows are measured concurrently: compiles and baseline runs are
	// gated by a semaphore sized to the worker count, and the AVF
	// campaigns of every row share one worker pool. Output stays in row
	// order.
	workers := sf.Workers()
	pool := campaign.NewPool(workers)
	defer pool.Close()
	sem := make(chan struct{}, workers)
	ctx, stop := cli.Interruptible()
	defer stop()

	type measured struct {
		cycles uint64
		code   int
		avf    float64
		skip   string
		intr   bool
		err    error
	}
	out := make([]measured, len(rows))
	var wg sync.WaitGroup
	for i, r := range rows {
		wg.Add(1)
		go func(i int, r row) {
			defer wg.Done()
			sem <- struct{}{}
			prog, err := compiler.CompileWithPasses(src, name, r.ps, tgt)
			if err != nil {
				out[i].err = err
				<-sem
				return
			}
			out[i].code = len(prog.Code)
			if avfTarget == nil {
				res := machine.New(cfg, prog).Run(1 << 34)
				<-sem
				if res.Outcome != machine.OutcomeOK {
					out[i].err = fmt.Errorf("%s: %v %s", r.label, res.Outcome, res.Reason)
				}
				out[i].cycles = res.Cycles
				return
			}
			// The experiment's golden run supplies the row's cycles, so a
			// row with an AVF target simulates its golden run only there.
			exp, err := core.CachedExperiment(cache, cfg, prog, faultinj.Options{
				Checkpoints: sf.CheckpointBudget(),
			})
			// The campaign runs on the shared pool; this goroutine only
			// waits, so its semaphore slot is released first.
			<-sem
			if err != nil {
				out[i].err = fmt.Errorf("%s: %w", r.label, err)
				return
			}
			out[i].cycles = exp.GoldenCycles
			cr := campaign.Run(exp, *avfTarget, campaign.Options{
				Faults: sf.Faults, Seed: sf.Seed, Pool: pool, Context: ctx,
			})
			out[i].avf = cr.AVF()
			out[i].skip = cr.Skipped
			out[i].intr = cr.Interrupted
		}(i, r)
	}
	wg.Wait()

	fullCycles := out[0].cycles
	interrupted := false
	for i, r := range rows {
		m := out[i]
		if m.err != nil {
			cli.Fatal(m.err)
		}
		fmt.Printf("%-16s %10d %7.3fx %8dw", r.label, m.cycles,
			float64(m.cycles)/float64(fullCycles), m.code)
		if avfTarget != nil {
			switch {
			case m.intr:
				interrupted = true
				fmt.Printf("   interrupted")
			case m.skip != "":
				fmt.Printf("   skipped: %s", m.skip)
			default:
				fmt.Printf(" %11.2f%%", m.avf*100)
			}
		}
		fmt.Println()
	}
	cli.CacheSummary(cache)
	if interrupted {
		fmt.Fprintln(os.Stderr, "interrupted: AVF columns marked interrupted are incomplete")
		os.Exit(cli.ExitInterrupted) //lint:exit process boundary: interrupted-run exit after partial output is printed
	}
}
