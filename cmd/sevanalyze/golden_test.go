package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/workloads"
)

// TestStaticBoundsMatchGolden is the regression gate on the static
// analysis itself: the quick-scale bounds for every (bench, level) cell
// on both microarchitectures — the Static records a zero-fault pruned
// core.Spec study computes — must match the checked-in golden files
// byte for byte. A transfer-function change that loosens precision
// (bounds drop) or unsoundly tightens it (bounds rise without a
// corresponding cross-validation run) shows up as a diff here before
// any injection campaign does. Refresh after intentional changes with:
//
//	go run ./cmd/sevanalyze -quick -march a15 -golden cmd/sevanalyze/testdata/bounds_a15.golden -update
//	go run ./cmd/sevanalyze -quick -march a72 -golden cmd/sevanalyze/testdata/bounds_a72.golden -update
func TestStaticBoundsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 64 quick golden simulations; skipped in -short")
	}
	for _, march := range []string{"a15", "a72"} {
		march := march
		t.Run(march, func(t *testing.T) {
			t.Parallel()
			cfg, err := cli.March(march)
			if err != nil {
				t.Fatal(err)
			}
			units, err := analyzeSuite(cfg, workloads.All(), compiler.Levels, suiteOptions{
				Quick: true, Bounds: true, Parallel: runtime.GOMAXPROCS(0),
			})
			if err != nil {
				t.Fatal(err)
			}
			got := boundsText(cfg.Name, units)
			golden := filepath.Join("testdata", "bounds_"+march+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (regenerate with sevanalyze -update): %v", err)
			}
			if diff := diffLines(string(want), got); diff != "" {
				t.Errorf("static bounds drifted from %s:\n%s\nif the change is intended and sound, refresh with -update", golden, diff)
			}
		})
	}
}
