// Command sevworker executes campaign cells on behalf of a sevd
// coordinator: it polls for leases, computes each batch with the same
// journaled engine the local tools use, and reports the outcomes.
//
// The -workdir journal makes the worker itself crash-safe: a worker
// SIGKILLed mid-lease and restarted on the same workdir replays its
// finished cells instead of recomputing them, then reports them —
// whether or not the coordinator still remembers the lease, since
// completions are merged by cell identity. The -cache directory is kept
// across leases and studies, so re-leased cells skip their compiles and
// golden simulations.
//
// Usage:
//
//	sevworker -coordinator http://localhost:8750 -workdir /tmp/w1
//	sevworker -coordinator http://host:8750 -workdir d -name rack3 -parallel 8
//
// SIGTERM or SIGINT stops the worker after at most one in-flight
// report; abandoned leases expire at the coordinator and reassign.
package main

import (
	"flag"
	"fmt"
	"os"

	"sevsim/internal/cli"
	"sevsim/internal/dispatch"
	"sevsim/internal/journal"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8750", "coordinator base URL")
	workdir := flag.String("workdir", "", "local journal directory (required); reuse it across restarts to resume partial leases")
	name := flag.String("name", "", "worker name for leases and error budgets (default host.pid)")
	cells := flag.Int("cells", 0, "cells to request per lease (0 = coordinator default)")
	sf := cli.NewStudyFlags()
	sf.Register(flag.CommandLine, "parallel", "cache")
	cacheMax := flag.Int64("cache-max-mb", 0, "cache size bound in MB (0 = adopt the study's advice, else unbounded)")
	quiet := flag.Bool("q", false, "suppress log output")
	flag.Parse()

	if *workdir == "" {
		cli.Fatal(fmt.Errorf("-workdir is required"))
	}
	if err := journal.MkdirAllSync(*workdir, 0o755); err != nil {
		cli.Fatal(err)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}

	w, err := dispatch.NewWorker(dispatch.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Workdir:     *workdir,
		MaxCells:    *cells,
		Parallelism: sf.Parallel,
		CacheDir:    sf.CacheDir,
		CacheMaxMB:  *cacheMax,
		Logf: func(format string, args ...any) {
			if !*quiet {
				fmt.Printf("sevworker %s: "+format+"\n", append([]any{*name}, args...)...)
			}
		},
	})
	if err != nil {
		cli.Fatal(err)
	}

	ctx, stop := cli.Interruptible()
	defer stop()
	if err := w.Run(ctx); err != nil {
		cli.Fatal(err)
	}
	cli.CacheSummary(w.Cache())
}
