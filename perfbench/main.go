// Command perfbench is sevsim's benchmark. It runs one of three
// reference studies, checks their classifications, and prints every
// end-to-end metric, or with -trace 1 every per-layer metric, as the
// last line of its output. From the repository root:
//
//	bash perfbench/run.sh --workload inject --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	inject  simulator and injection fast path: A15-like, qsort+gsm,
//	        O0+O2 at DefaultSize, four targets, many faults per cell
//	sweep   prep-heavy: both marches, all benches, O0-O3 at TestSize,
//	        pruner on, a fresh prep cache and a journal
//	dist    the sweep's units under another seed, through an in-process
//	        coordinator and nproc workers sharing a pre-filled cache
//
// The untraced run repeats set-up and study until -seconds have passed
// and reports medians. The traced run pairs an untraced study with one
// composed from the layers' public calls, with a span around each call.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"sevsim/internal/artcache"
	"sevsim/internal/core"
	"sevsim/internal/report"
)

// minReps is the fewest untraced studies a run measures, so every
// median has at least three samples.
const minReps = 3

// workload is how a workload sets up: prepare, when present, is set-up
// shared by every study of a run (dist's cache fill); setup readies one
// study.
type workload struct {
	prepare func(e *env, tr *tracer) error
	setup   func(e *env, tr *tracer) (instance, error)
}

var workloadsByName = map[string]workload{
	"inject": {setup: setupInject},
	"sweep":  {setup: setupSweep},
	"dist":   {prepare: prepareDist, setup: setupDist},
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, not in the JSON
}

// result is a run's outcome: its metrics and the correctness tally.
type result struct {
	metrics   []metric
	attempted int // cells run
	failed    int // cells that failed a check
	digest    string
}

func (r *result) add(name string, value float64, unit string) *metric {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
	return &r.metrics[len(r.metrics)-1]
}

func main() {
	workload := flag.String("workload", "", "workload to run: inject, sweep or dist")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's study is generated from")
	seconds := flag.Float64("seconds", 30, "how long to keep repeating the study")
	traced := flag.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for caches, journals, studies and the span file")
	flag.Parse()
	if _, ok := workloadsByName[*workload]; !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload inject|sweep|dist, -trace 0|1 and -seconds > 0")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, fullScale, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, *workload, res)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// run measures one workload.
func run(name string, seed int64, dur time.Duration, traced bool, sc scale, workdir string) (*result, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("run-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{dir: dir, seed: seed, sc: sc, nproc: runtime.NumCPU()}
	r := &result{}
	if traced {
		return r, measureTraced(name, e, dur, r, filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", name, seed)))
	}
	return r, measure(name, e, dur, r)
}

// checker tallies the correctness checks of every study in a run.
type checker struct {
	name string
	sc   scale
	seed int64
	r    *result
}

// check tallies the rep-th study of the run. On the first study of
// the default seed it also compares the digest with the pinned one.
func (c *checker) check(st *core.Study, spec core.Spec, rep int, refs ...*core.Study) {
	pin := ""
	if rep == 0 && c.sc.pinned && c.seed == defaultSeed {
		pin = pinnedDigest[c.name]
	}
	d := c.tally(st, spec, pin, refs...)
	if rep == 0 {
		c.r.digest = d
	}
}

// tally counts the study's failed cells: cells that did not complete
// cleanly, cells that differ from a reference study of the same spec,
// and, when pin is not empty, every cell if the digest differs from
// it. It returns the digest.
func (c *checker) tally(st *core.Study, spec core.Spec, pin string, refs ...*core.Study) string {
	want := len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels) * len(spec.Targets)
	c.r.attempted += want
	bad := badCells(st, want, spec.Faults)
	for _, ref := range refs {
		bad += differingCells(st, ref)
	}
	d := digest(st)
	if pin != "" && d != pin {
		bad = want
	}
	c.r.failed += min(bad, want)
	return d
}

// selfCheck runs the workload's check study untimed, before anything
// is measured: the workload at checkScale and the default seed, set up
// and run as the measured studies are. Its digest must equal
// checkDigest, so a run on any seed catches a changed classification.
func selfCheck(name string, e *env, ck *checker) error {
	start := time.Now()
	dir, err := e.fresh("check")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ce := &env{dir: dir, seed: defaultSeed, sc: checkScale, nproc: e.nproc}
	if p := workloadsByName[name].prepare; p != nil {
		if err := p(ce, nil); err != nil {
			return fmt.Errorf("check set-up: %w", err)
		}
	}
	inst, err := workloadsByName[name].setup(ce, nil)
	if err != nil {
		return fmt.Errorf("check set-up: %w", err)
	}
	st, _, err := inst.run(nil)
	if err = errors.Join(err, inst.close()); err != nil {
		return fmt.Errorf("check study: %w", err)
	}
	d := ck.tally(st, ce.spec(name), checkDigest[name])
	fmt.Fprintf(os.Stderr, "%s check study: digest %s, want %s (%.3fs)\n", name, d, checkDigest[name], time.Since(start).Seconds())
	return nil
}

// setupRepeats is how many times a run repeats each set-up; only the
// last one is used. The repeats give setup_s a median.
const setupRepeats = 3

// prepare runs the workload's shared set-up, if it has one, repeats
// times and returns its median time.
func prepare(name string, e *env, tr *tracer, repeats int) (float64, error) {
	p := workloadsByName[name].prepare
	if p == nil {
		return 0, nil
	}
	var times []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := p(e, tr); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// setUp sets up the rep-th study and returns it with the set-up times.
func setUp(name string, e *env, rep int, tr *tracer) (instance, []float64, error) {
	e.rep = rep
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		inst, err := workloadsByName[name].setup(e, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return inst, times, nil
		}
		if err := inst.close(); err != nil {
			return nil, nil, err
		}
	}
}

// measure is the untraced run: set-up and study, repeated.
func measure(name string, e *env, dur time.Duration, r *result) error {
	ck := &checker{name: name, sc: e.sc, seed: e.seed, r: r}
	var setupS, studyS, injPerS, rss []float64
	var perStudy int
	if err := selfCheck(name, e, ck); err != nil {
		return err
	}
	shared, err := prepare(name, e, nil, setupRepeats)
	if err != nil {
		return err
	}
	begin := time.Now()
	for rep := 0; rep < minReps || time.Since(begin) < dur; rep++ {
		inst, times, err := setUp(name, e, rep, nil)
		if err != nil {
			return err
		}
		setupS = append(setupS, times...)
		// Each study starts from a scavenged heap, as in a fresh
		// process, and its own peak resident set.
		debug.FreeOSMemory()
		resetPeakRSS()
		st, took, err := inst.run(nil)
		rss = append(rss, peakRSSMB())
		var ref *core.Study
		if err == nil && rep == 0 {
			ref, err = inst.reference()
		}
		if err = errors.Join(err, inst.close()); err != nil {
			return err
		}
		if ref != nil {
			ck.check(st, e.spec(name), rep, ref)
		} else {
			ck.check(st, e.spec(name), rep)
		}
		perStudy = injections(st)
		studyS = append(studyS, took.Seconds())
		injPerS = append(injPerS, float64(perStudy)/took.Seconds())
		fmt.Fprintf(os.Stderr, "%s rep %d: set-up %.4fs, study %.3fs\n", name, rep, times[len(times)-1], took.Seconds())
	}
	r.add("study_s", median(studyS), "s").note = fmt.Sprintf("median of %d studies", len(studyS))
	r.add("inj_per_s", median(injPerS), "1/s").note = fmt.Sprintf("%d injections per study", perStudy)
	r.add("setup_s", shared+median(setupS), "s").note = fmt.Sprintf("median of %d study set-ups, plus %.3fs shared", len(setupS), shared)
	r.add("peak_rss_mb", median(rss), "MB").note = "median of the studies' peaks"
	return nil
}

// injections counts a study's classified injections, simulated or
// pruned.
func injections(st *core.Study) int {
	n := 0
	for _, r := range st.Results {
		n += r.Faults
	}
	return n
}

// measureTraced pairs an untraced study with a traced one of the same
// spec until the time is up, and reports the per-layer metrics as
// medians over the traced studies.
func measureTraced(name string, e *env, dur time.Duration, r *result, spanFile string) error {
	ck := &checker{name: name, sc: e.sc, seed: e.seed, r: r}
	var untraced []float64
	per := map[string][]float64{}
	var order []metric
	var last *tracer
	if err := selfCheck(name, e, ck); err != nil {
		return err
	}
	if _, err := prepare(name, e, newTracer(), 1); err != nil {
		return err
	}
	begin := time.Now()
	for rep := 0; rep == 0 || time.Since(begin) < dur; rep++ {
		inst, _, err := setUp(name, e, rep, nil)
		if err != nil {
			return err
		}
		debug.FreeOSMemory()
		st, took, err := inst.run(nil)
		if err = errors.Join(err, inst.close()); err != nil {
			return err
		}
		ck.check(st, e.spec(name), rep)
		untraced = append(untraced, took.Seconds())

		tr := newTracer()
		inst, _, err = setUp(name, e, rep, tr)
		if err != nil {
			return err
		}
		debug.FreeOSMemory()
		ms, err := tracedStudy(inst, tr, ck, e.spec(name), rep, st, e.nproc)
		if err = errors.Join(err, inst.close()); err != nil {
			return err
		}
		for _, m := range ms {
			if _, seen := per[m.name]; !seen {
				order = append(order, m)
			}
			per[m.name] = append(per[m.name], m.value)
		}
		last = tr
	}
	base := median(untraced)
	for _, m := range order {
		v := median(per[m.name])
		switch {
		case exactCounts[m.name]:
			v = per[m.name][0]
		case m.name == "trace.overhead_frac":
			v = v/base - 1 // the traced totals were stored in seconds
		}
		r.add(m.name, v, m.unit).note = m.note
	}
	return last.write(spanFile)
}

// tracedStudy runs one traced study on a set-up instance, checks it,
// and returns its per-layer metrics. trace.overhead_frac is returned
// as the traced total in seconds; the caller divides it by the
// untraced median.
func tracedStudy(inst instance, tr *tracer, ck *checker, spec core.Spec, rep int, untraced *core.Study, nproc int) ([]metric, error) {
	st, took, err := inst.run(tr)
	if err != nil {
		return nil, err
	}
	ck.check(st, spec, rep, untraced)
	var c *counters
	var cache artcache.Stats
	rt := &rtStats{}
	switch in := inst.(type) {
	case *local:
		c = in.c
		cache = in.s.Cache.Stats()
	case *distributed:
		rt = in.rt
		cache = in.cacheStats()
		var composed *core.Study
		composed, c, err = in.composed(tr)
		if err != nil {
			return nil, fmt.Errorf("composed dist units: %w", err)
		}
		ck.check(composed, spec, rep, st)
	}
	tr.do("report.render", -1, func(int) { report.Everything(io.Discard, st) })
	return layerMetrics(tr.snapshot(), c, cache, rt, nproc, took), nil
}

// exactCounts are the per-layer counts that repeat exactly for a run
// seed. They are reported from the run's first traced study, whose spec
// depends on the seed alone.
var exactCounts = map[string]bool{
	"faultinj.injections": true, "machine.golden_cycles": true, "checkpoint.snapshots": true,
	"binanalysis.pruned_reg": true, "binanalysis.pruned_bit": true, "binanalysis.pruned_due": true,
	"artcache.misses": true,
}

// layers are the modules self time is reported for.
var layers = []string{"compiler", "machine", "checkpoint", "faultinj", "campaign", "binanalysis",
	"artcache", "journal", "core", "dispatch", "report", "trace"}

func layerMetrics(spans []span, c *counters, cache artcache.Stats, rt *rtStats, workers int, tracedTotal time.Duration) []metric {
	var ms []metric
	add := func(name string, v float64, unit string) *metric {
		ms = append(ms, metric{name: name, value: v, unit: unit})
		return &ms[len(ms)-1]
	}
	self := selfTimes(spans)
	secs := func(name string) float64 { return self[name].Seconds() }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dist := func(prefix, name string) {
		xs := durations(spans, name)
		add(prefix+"_p50", median(xs), "ms").note = fmt.Sprintf("n=%d", len(xs))
		v, label := tail(xs)
		add(prefix+"_tail", v, "ms").note = label
	}

	add("faultinj.inject_s", secs("faultinj.inject"), "s")
	dist("faultinj.inject_ms", "faultinj.inject")
	add("faultinj.injections", float64(c.injections.Load()), "count")
	add("faultinj.ff_cycles_mean", ratio(float64(c.ffCycles.Load()), float64(c.simulated.Load())), "cycles")
	add("faultinj.golden_end_masked_frac", ratio(float64(c.goldenEndMasked.Load()), float64(c.simulated.Load())), "fraction")

	golden := secs("machine.golden")
	add("machine.golden_s", golden, "s")
	add("machine.golden_cycles", float64(c.goldenCycles.Load()), "cycles")
	add("machine.golden_mcycles_per_s", ratio(float64(c.goldenCycles.Load())/1e6, golden), "Mcycles/s")

	add("checkpoint.record_s", secs("checkpoint.record"), "s")
	add("checkpoint.snapshots", float64(c.snapshots.Load()), "count")
	add("checkpoint.stream_mb", float64(c.streamBytes.Load())/(1<<20), "MB")

	add("compiler.compile_s", secs("compiler.compile"), "s")
	add("compiler.code_words", float64(c.codeWords.Load()), "count")

	pruned := c.prunedReg.Load() + c.prunedBit.Load() + c.prunedDUE.Load()
	add("binanalysis.analyze_s", secs("binanalysis.analyze"), "s")
	add("binanalysis.pruner_build_s", secs("binanalysis.pruner"), "s")
	add("binanalysis.prune_check_s", secs("binanalysis.prune_check"), "s")
	add("binanalysis.pruned_reg", float64(c.prunedReg.Load()), "count")
	add("binanalysis.pruned_bit", float64(c.prunedBit.Load()), "count")
	add("binanalysis.pruned_due", float64(c.prunedDUE.Load()), "count")
	add("binanalysis.prune_frac", ratio(float64(pruned), float64(c.pruneChecks.Load())), "fraction")

	add("artcache.fill_s", secs("artcache.fill"), "s")
	add("artcache.misses", float64(cache.Misses), "count")
	add("artcache.entry_mb", ratio(float64(c.fillBytes.Load())/(1<<20), float64(c.fills.Load())), "MB")
	add("artcache.get_s", secs("artcache.get"), "s")
	add("artcache.hits", float64(cache.Hits), "count")

	add("journal.append_s", secs("journal.append"), "s")
	add("journal.appends", float64(c.appends.Load()), "count")

	dist("campaign.cell_ms", "campaign.cell")
	busy := total(spans, "faultinj.inject") + total(spans, "binanalysis.prune_check")
	add("campaign.pool_busy_frac", ratio(busy.Seconds(), window(spans, "campaign.cell").Seconds()*float64(workers)), "fraction")

	dist("dispatch.lease_ms", "dispatch.lease")
	dist("dispatch.complete_ms", "dispatch.complete")
	add("dispatch.lease_polls", float64(rt.leasePolls), "count")
	add("dispatch.grant_frac", ratio(float64(rt.grants), float64(rt.leasePolls)), "fraction")

	add("core.save_s", secs("core.save"), "s")
	add("report.render_s", secs("report.render"), "s")

	byLayer := layerTimes(self)
	for _, l := range layers {
		add(l+".self_s", byLayer[l].Seconds(), "s")
	}
	add("trace.overhead_frac", tracedTotal.Seconds(), "fraction")
	return ms
}

// resetPeakRSS restarts the kernel's peak resident set count from the
// current resident set, so peakRSSMB then reports the peak since.
func resetPeakRSS() {
	// Without the reset, peakRSSMB reports the peak since the process
	// started, a bound on the same figure.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printResult prints one line per metric, the correctness tally, and
// last the JSON object the benchmark contract asks for.
func printResult(w io.Writer, name string, r *result) {
	ms := append([]metric(nil), r.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(w, "%-8s %-36s %14.6g %-10s %s\n", name, m.name, m.value, m.unit, m.note)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-8s %-36s %14.6g %-10s %d of %d cells; digest %s\n", name, "failed_cell_frac", frac, "fraction", r.failed, r.attempted, r.digest)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	data, _ := json.Marshal(out) // numbers and strings only; cannot fail
	fmt.Fprintln(w, string(data))
}
