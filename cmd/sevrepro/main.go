// Command sevrepro regenerates every table and figure of the paper:
// it runs the full characterization study (both microarchitectures, all
// eight benchmarks, four optimization levels, all fifteen structure
// fields) and writes the results as text figures, CSV, and JSON.
//
// The paper's full scale is -faults 2000 with large inputs; the default
// here is a laptop-scale run that preserves the comparative shape.
//
// Usage:
//
//	sevrepro -faults 150 -out results
//	sevrepro -faults 2000 -scale 2 -out results-full   # closer to paper scale
//	sevrepro -load results/study.json -out results     # re-render only
//
// Runs are journaled by default (<out>/journal.jsonl): Ctrl-C drains
// gracefully, and re-running the same command resumes from the last
// completed cell, producing the same study.json an uninterrupted run
// would have.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sevsim/internal/cli"
	"sevsim/internal/core"
	"sevsim/internal/journal"
	"sevsim/internal/report"
	"sevsim/internal/workloads"
)

func main() {
	sf := cli.NewStudyFlags()
	sf.Faults = 150
	sf.Register(flag.CommandLine, "faults", "seed", "parallel", "prune", "checkpoints", "cache", "cache-max-mb")
	outDir := flag.String("out", "results", "output directory")
	scale := flag.Float64("scale", 1.0, "benchmark size multiplier")
	load := flag.String("load", "", "re-render figures from a saved study.json instead of running")
	jpath := flag.String("journal", "", "durable journal path for kill-and-resume (default <out>/journal.jsonl; \"off\" disables)")
	keepGoing := flag.Bool("keep-going", false, "quarantine failed units/cells into the study instead of aborting on the first error")
	retries := flag.Int("retries", 0, "extra preparation attempts per unit before quarantining (with -keep-going)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell wall-clock watchdog (0 = off); stuck cells are recorded and skipped")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	// The output directory must itself be durable before the journal and
	// study files inside it are: a crash that loses the dentry loses
	// everything written under it, fsynced or not.
	if err := journal.MkdirAllSync(*outDir, 0o755); err != nil {
		cli.Fatal(err)
	}

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		cli.Fatal(err)
	}
	defer stopProfiles()

	var st *core.Study
	if *load != "" {
		var err error
		st, err = core.Load(*load)
		if err != nil {
			cli.Fatal(err)
		}
	} else {
		spec := core.DefaultSpec(sf.Faults)
		spec.Seed = sf.Seed
		spec.Parallelism = sf.Workers()
		spec.Prune = sf.Prune
		spec.KeepGoing = *keepGoing
		spec.Retries = *retries
		spec.CellTimeout = *cellTimeout
		spec.Checkpoints = sf.CheckpointBudget()
		spec.Cache = sf.OpenCache()
		switch *jpath {
		case "off":
		case "":
			spec.Journal = filepath.Join(*outDir, "journal.jsonl")
		default:
			spec.Journal = *jpath
		}
		if *scale != 1.0 {
			spec.Size = func(b workloads.Benchmark) int {
				s := int(float64(b.DefaultSize) * *scale)
				if s < 1 {
					s = 1
				}
				return s
			}
		}
		spec.Progress = cli.Progress(*quiet)

		ctx, stop := cli.Interruptible()
		start := time.Now() //lint:clock progress display only; elapsed time never reaches study.json
		var err error
		st, err = spec.RunContext(ctx)
		stop()
		if err != nil {
			if errors.Is(err, context.Canceled) && spec.Journal != "" {
				fmt.Fprintf(os.Stderr, "\ninterrupted: completed cells are journaled in %s\n", spec.Journal)
				fmt.Fprintln(os.Stderr, "re-run the same command to resume from where it stopped")
				stopProfiles()
				os.Exit(cli.ExitInterrupted) //lint:exit process boundary: interrupted-study exit after the journal is flushed
			}
			cli.Fatal(err)
		}
		fmt.Printf("\nstudy complete: %d campaign cells, %d injections, %s\n",
			len(st.Results), len(st.Results)*sf.Faults,
			time.Since(start).Round(time.Second)) //lint:clock progress display only; elapsed time never reaches study.json
		if err := st.Save(filepath.Join(*outDir, "study.json")); err != nil {
			cli.Fatal(err)
		}
		// The study is durably saved; the journal has served its purpose.
		if spec.Journal != "" {
			if err := journal.Remove(spec.Journal); err != nil {
				fmt.Fprintln(os.Stderr, "warning: could not remove journal:", err)
			}
		}
		if len(st.Failed) > 0 {
			fmt.Printf("note: %d units/cells quarantined; see the failures table in figures.txt\n", len(st.Failed))
		}
		cli.CacheSummary(spec.Cache)
		if spec.Cache != nil {
			// Per-study cache effectiveness as CSV, next to campaigns.csv,
			// for sweep dashboards.
			cc, err := os.Create(filepath.Join(*outDir, "cache.csv"))
			if err != nil {
				cli.Fatal(err)
			}
			cs := spec.Cache.Stats()
			report.CSV(cc,
				[]string{"cache_hits", "cache_misses", "cache_puts", "cache_evictions", "cache_corrupt"},
				[][]string{{fmt.Sprint(cs.Hits), fmt.Sprint(cs.Misses), fmt.Sprint(cs.Puts),
					fmt.Sprint(cs.Evictions), fmt.Sprint(cs.Corrupt)}})
			if err := cc.Close(); err != nil {
				cli.Fatal(err)
			}
		}
	}

	// Render the full figure set.
	figPath := filepath.Join(*outDir, "figures.txt")
	f, err := os.Create(figPath)
	if err != nil {
		cli.Fatal(err)
	}
	report.Everything(f, st)
	if err := f.Close(); err != nil {
		cli.Fatal(err)
	}

	// Raw campaign data as CSV for downstream plotting.
	csvPath := filepath.Join(*outDir, "campaigns.csv")
	c, err := os.Create(csvPath)
	if err != nil {
		cli.Fatal(err)
	}
	headers := []string{"march", "bench", "level", "target", "faults",
		"masked", "sdc", "crash", "timeout", "assert",
		"pruned", "pruned_reg", "pruned_bit", "pruned_due", "unexpected",
		"golden_cycles", "struct_bits"}
	rows := make([][]string, 0, len(st.Results))
	for _, r := range st.Results {
		rows = append(rows, []string{
			r.March, r.Bench, r.Level, r.Target,
			fmt.Sprint(r.Faults), fmt.Sprint(r.Counts.Masked), fmt.Sprint(r.Counts.SDC),
			fmt.Sprint(r.Counts.Crash), fmt.Sprint(r.Counts.Timeout), fmt.Sprint(r.Counts.Assert),
			fmt.Sprint(r.Counts.Pruned), fmt.Sprint(r.Counts.PrunedReg), fmt.Sprint(r.Counts.PrunedBit),
			fmt.Sprint(r.Counts.PrunedDUE), fmt.Sprint(r.Counts.Unexpected),
			fmt.Sprint(r.GoldenCycles), fmt.Sprint(r.StructBits),
		})
	}
	report.CSV(c, headers, rows)
	if err := c.Close(); err != nil {
		cli.Fatal(err)
	}

	// Pruner hit rates: how much simulation the static analyses saved,
	// split by the granularity/class that proved each injection.
	if sf.Prune {
		var total, pruned, preg, pbit, pdue int
		for _, r := range st.Results {
			if r.Target != "RF" {
				continue
			}
			total += r.Faults
			pruned += r.Counts.Pruned
			preg += r.Counts.PrunedReg
			pbit += r.Counts.PrunedBit
			pdue += r.Counts.PrunedDUE
		}
		if total > 0 {
			fmt.Printf("pruner: %d/%d RF injections proven statically (%.1f%%): %d register-granular + %d bit-granular Masked, %d crash-certain DUE\n",
				pruned, total, 100*float64(pruned)/float64(total), preg, pbit, pdue)
		}
	}

	fmt.Printf("wrote %s and %s\n", figPath, csvPath)

	// Unexpected simulator panics mean the harness itself misbehaved for
	// some injections; surface that as a failing exit so CI and scripted
	// sweeps notice.
	unexpected := 0
	for _, r := range st.Results {
		unexpected += r.Counts.Unexpected
	}
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "error: %d injections hit unexpected simulator panics (see the anomalies table in figures.txt)\n", unexpected)
		stopProfiles()
		os.Exit(1) //lint:exit process boundary: non-zero verdict for unexpected simulator panics
	}
}
