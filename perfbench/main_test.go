package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"sevsim/internal/artcache"
	"sevsim/internal/campaign"
	"sevsim/internal/core"
)

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

type printed struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// lastLine parses the JSON object a run prints last.
func lastLine(t *testing.T, out string) printed {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return p
}

// TestEveryMetricPrinted runs each workload of BENCHMARK.json at a tiny
// size, untraced and traced, and checks that the result object holds
// exactly the metrics the file names, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for traced, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			res, err := run(w.Name, 7, 0, traced == 1, tinyScale, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, traced, err)
			}
			var buf bytes.Buffer
			printResult(&buf, w.Name, res)
			p := lastLine(t, buf.String())
			if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d cells failed", w.Name, traced, p.Correct, p.Failed, p.Attempted)
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(p.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := p.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s printed as %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCheckFailsOnPerturbedCell shows that moving one injection of one
// cell to another outcome class fails that cell and the run, while a
// change to the Pruned* split alone leaves the digest unchanged.
func TestCheckFailsOnPerturbedCell(t *testing.T) {
	spec := injectSpec(tinyScale, 3, 2)
	ref, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := copyStudy(t, ref)
	if digest(st) != digest(ref) || differingCells(st, ref) != 0 {
		t.Fatal("a copy of a study does not match it")
	}
	st.Results[1].Counts.PrunedReg++
	if digest(st) != digest(ref) {
		t.Error("the Pruned* split changed the digest")
	}

	c := &st.Results[2].Counts
	if c.Masked > 0 {
		c.Masked--
	} else {
		c.Crash--
	}
	c.SDC++
	if digest(st) == digest(ref) {
		t.Error("a changed classification kept the digest")
	}
	r := &result{}
	ck := &checker{name: "inject", sc: tinyScale, seed: 3, r: r}
	ck.check(st, spec, 0, ref)
	if r.failed != 1 || r.attempted != len(ref.Results) {
		t.Errorf("perturbed cell: %d of %d cells failed, want 1 of %d", r.failed, r.attempted, len(ref.Results))
	}
	var buf bytes.Buffer
	printResult(&buf, "inject", r)
	if p := lastLine(t, buf.String()); p.Correct || p.Failed != 1 {
		t.Errorf("printed correct %v with %d failed cells", p.Correct, p.Failed)
	}

	// A count that no longer adds up to the cell's faults fails the
	// cell without any reference.
	st.Results[0].Counts.Timeout++
	if n := badCells(st, len(st.Results), spec.Faults); n != 1 {
		t.Errorf("badCells = %d after breaking one cell's total, want 1", n)
	}
}

// TestPinnedDigestMismatchFailsEveryCell checks both pins: a first
// study of the default seed, and the check study every run makes on
// any seed, fail all of their cells when their digest differs from the
// pinned one.
func TestPinnedDigestMismatchFailsEveryCell(t *testing.T) {
	st := &core.Study{Results: []campaign.Result{{March: "m", Bench: "b", Level: "O0", Target: "RF", Faults: 1, Counts: campaign.Counts{Masked: 1}}}}
	spec := injectSpec(tinyScale, defaultSeed, 1)
	spec.Benchmarks, spec.Targets = spec.Benchmarks[:1], spec.Targets[:1]
	spec.Levels, spec.Faults = spec.Levels[:1], 1
	pinned := tinyScale
	pinned.pinned = true
	r := &result{}
	ck := &checker{name: "inject", sc: pinned, seed: defaultSeed, r: r}
	ck.check(st, spec, 0)
	if r.failed != 1 {
		t.Errorf("%d cells failed against a different pinned digest, want 1", r.failed)
	}

	r = &result{}
	ck = &checker{name: "inject", sc: tinyScale, seed: 42, r: r}
	ck.tally(st, spec, checkDigest["inject"])
	if r.failed != 1 {
		t.Errorf("%d cells failed against a different check digest, want 1", r.failed)
	}
}

func copyStudy(t *testing.T, st *core.Study) *core.Study {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	out := &core.Study{}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestComposeHonoursCheckpointOptions checks that the traced
// composition follows the spec's checkpoint budget and fast-exit
// setting as Spec.Run does, cached and uncached.
func TestComposeHonoursCheckpointOptions(t *testing.T) {
	for _, k := range []int{-1, 3} {
		spec := sweepSpec(tinyScale, 5, 2)
		spec.Checkpoints, spec.NoFastExit = k, k > 0
		ref, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		units := int64(len(spec.Machines) * len(spec.Benchmarks) * len(spec.Levels))
		for _, cached := range []bool{false, true} {
			s := spec
			if cached {
				if s.Cache, err = artcache.Open(t.TempDir(), artcache.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			st, c, err := compose(s, newTracer(), "")
			if err != nil {
				t.Fatal(err)
			}
			if n := differingCells(st, ref); n != 0 {
				t.Errorf("checkpoints %d, cached %v: %d cells differ from Spec.Run", k, cached, n)
			}
			if want := max(int64(k), 0) * units; c.snapshots.Load() != want {
				t.Errorf("checkpoints %d, cached %v: %d snapshots, want %d", k, cached, c.snapshots.Load(), want)
			}
		}
	}
}
