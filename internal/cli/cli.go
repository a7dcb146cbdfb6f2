// Package cli holds flag-parsing helpers shared by the sevsim command
// line tools.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"

	"sevsim/internal/artcache"
	"sevsim/internal/compiler"
	"sevsim/internal/faultinj"
	"sevsim/internal/lang"
	"sevsim/internal/machine"
	"sevsim/internal/workloads"
)

// Interruptible returns a context cancelled by SIGINT or SIGTERM, for
// graceful drain: a study or campaign given this context finishes its
// in-flight injections, flushes its journal, and returns
// context.Canceled instead of dying mid-write. A second signal while
// draining kills the process immediately (the Go runtime default,
// restored by stop).
func Interruptible() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ExitInterrupted is the conventional exit status for a run cut short
// by SIGINT (128 + SIGINT).
const ExitInterrupted = 130

// StudyFlags are the flags the sevsim tools share: what to study (the
// microarchitecture, the -O level and the program) and how to run it
// (faults, seed, workers, pruning, checkpoints and the prep-artifact
// cache). A tool takes NewStudyFlags, overrides the fields whose
// default differs for it, registers the flags it accepts, and resolves
// them after parsing. The resolvers are for main: a value that does not
// resolve exits through Fatal.
type StudyFlags struct {
	March       string // -march
	Level       string // -O
	Bench       string // -bench
	Src         string // -src
	Size        int    // -size
	Faults      int    // -faults
	Seed        int64  // -seed
	Parallel    int    // -parallel
	Prune       bool   // -prune
	Checkpoints int    // -checkpoints
	CacheDir    string // -cache
	CacheMaxMB  int64  // -cache-max-mb
}

// NewStudyFlags returns the shared defaults: the A15-like machine at
// O2, the paper's 2,000 faults per campaign cell, and the package-default
// checkpoint budget.
func NewStudyFlags() *StudyFlags {
	return &StudyFlags{
		March:       "a15",
		Level:       "O2",
		Faults:      2000,
		Seed:        2021,
		Checkpoints: faultinj.DefaultCheckpoints,
	}
}

// Register defines the named flags on fs, each defaulting to its
// field's current value. Names are the flag names without the dash; an
// unknown name is a programming error and panics.
func (f *StudyFlags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "march":
			fs.StringVar(&f.March, name, f.March, "microarchitecture: a15 or a72")
		case "O":
			fs.StringVar(&f.Level, name, f.Level, "optimization level O0..O3")
		case "bench":
			fs.StringVar(&f.Bench, name, f.Bench, "benchmark name (qsort, dijkstra, fft, sha, blowfish, gsm, patricia, rijndael)")
		case "src":
			fs.StringVar(&f.Src, name, f.Src, "MiniC source file")
		case "size":
			fs.IntVar(&f.Size, name, f.Size, "benchmark scale (0 = default)")
		case "faults":
			fs.IntVar(&f.Faults, name, f.Faults, "faults per campaign cell (paper: 2000)")
		case "seed":
			fs.Int64Var(&f.Seed, name, f.Seed, "sampling seed")
		case "parallel":
			fs.IntVar(&f.Parallel, name, f.Parallel, "worker pool size (0 = GOMAXPROCS); results are identical at any setting")
		case "prune":
			fs.BoolVar(&f.Prune, name, f.Prune, "statically prune provably-masked RF injections (identical outcomes, less simulation)")
		case "checkpoints":
			fs.IntVar(&f.Checkpoints, name, f.Checkpoints, "golden checkpoints per cell for injection fast-forward (0 disables); results are identical at any setting")
		case "cache":
			fs.StringVar(&f.CacheDir, name, f.CacheDir, "prep-artifact cache directory; repeat runs skip compiles and golden simulations (results are byte-identical either way)")
		case "cache-max-mb":
			fs.Int64Var(&f.CacheMaxMB, name, f.CacheMaxMB, "cache size bound in MB (0 = unbounded); least-recently-used entries are evicted")
		default:
			panic("cli: no study flag -" + name)
		}
	}
}

// Machine resolves -march.
func (f *StudyFlags) Machine() machine.Config { return must(March(f.March)) }

// OptLevel resolves -O.
func (f *StudyFlags) OptLevel() compiler.OptLevel { return must(Level(f.Level)) }

// Source resolves -bench, -src and -size into a named MiniC program.
func (f *StudyFlags) Source() (name, src string) {
	name, src, err := LoadSource(f.Bench, f.Src, f.Size)
	if err != nil {
		Fatal(err)
	}
	return name, src
}

// Workers resolves -parallel: <= 0 means one worker per available CPU
// (GOMAXPROCS).
func (f *StudyFlags) Workers() int {
	if f.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return f.Parallel
}

// CheckpointBudget maps -checkpoints (0 disables, the natural CLI
// convention) to the faultinj.Options / core.Spec convention, where 0
// means "package default" and a negative value disables.
func (f *StudyFlags) CheckpointBudget() int {
	if f.Checkpoints <= 0 {
		return -1
	}
	return f.Checkpoints
}

// OpenCache opens the prep-artifact cache behind -cache: no directory
// leaves caching disabled (a nil cache is valid everywhere), and
// -cache-max-mb 0 leaves the size unbounded.
func (f *StudyFlags) OpenCache() *artcache.Cache {
	if f.CacheDir == "" {
		return nil
	}
	return must(artcache.Open(f.CacheDir, artcache.Options{MaxBytes: f.CacheMaxMB << 20}))
}

// must returns v, exiting through Fatal when err is set.
func must[T any](v T, err error) T {
	if err != nil {
		Fatal(err)
	}
	return v
}

// Progress returns a serialized stdout progress printer, or nil when
// quiet. Concurrent study cells report through one mutex so lines never
// interleave.
func Progress(quiet bool) func(format string, args ...any) {
	if quiet {
		return nil
	}
	var mu sync.Mutex
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf(format+"\n", args...)
	}
}

// March resolves a microarchitecture flag value ("a15" or "a72", or a
// full config name).
func March(name string) (machine.Config, error) {
	switch name {
	case "a15", "A15", "Cortex-A15-like":
		return machine.CortexA15Like(), nil
	case "a72", "A72", "Cortex-A72-like":
		return machine.CortexA72Like(), nil
	}
	return machine.Config{}, fmt.Errorf("unknown microarchitecture %q (use a15 or a72)", name)
}

// Level resolves an optimization level flag value ("O0".."O3" or
// "0".."3").
func Level(name string) (compiler.OptLevel, error) {
	switch name {
	case "O0", "o0", "0":
		return compiler.O0, nil
	case "O1", "o1", "1":
		return compiler.O1, nil
	case "O2", "o2", "2":
		return compiler.O2, nil
	case "O3", "o3", "3":
		return compiler.O3, nil
	}
	return compiler.O0, fmt.Errorf("unknown optimization level %q (use O0..O3)", name)
}

// Target derives the compiler backend target from a machine config.
func Target(cfg machine.Config) compiler.Target {
	return compiler.Target{XLEN: cfg.CPU.XLEN, NumArchRegs: cfg.CPU.NumArchRegs}
}

// LoadSource returns MiniC source either from a named benchmark (at the
// given size, 0 = default) or from a file.
func LoadSource(bench, file string, size int) (name, src string, err error) {
	switch {
	case bench != "" && file != "":
		return "", "", fmt.Errorf("use either -bench or -src, not both")
	case bench != "":
		b, err := workloads.ByName(bench)
		if err != nil {
			return "", "", err
		}
		if size <= 0 {
			size = b.DefaultSize
		}
		return b.Name, b.Source(size), nil
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return "", "", err
		}
		return file, string(data), nil
	}
	return "", "", fmt.Errorf("one of -bench or -src is required")
}

// MustParse parses MiniC source, exiting with a diagnostic on failure.
func MustParse(src string) *lang.Program {
	prog, err := lang.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse error:", err)
		os.Exit(1) //lint:exit process boundary for the CLI tools
	}
	return prog
}

// Fatal prints an error and exits.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1) //lint:exit process boundary for the CLI tools
}

// CacheSummary prints the cache's effectiveness counters; a disabled
// cache prints nothing.
func CacheSummary(c *artcache.Cache) {
	if c == nil {
		return
	}
	fmt.Printf("cache: %s\n", c.Stats())
}

// StartProfiles starts CPU and/or heap profiling for a CLI run. Either
// path may be empty to skip that profile. The returned stop function
// must run at exit (defer it): it stops the CPU profile and writes the
// heap profile after a final GC, so the snapshot shows live allocations
// rather than garbage.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			memFile, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mem profile:", err)
				return
			}
			defer memFile.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fmt.Fprintln(os.Stderr, "mem profile:", err)
			}
		}
	}, nil
}
