package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sevsim/internal/faultinj"
)

func TestMarchResolution(t *testing.T) {
	for _, name := range []string{"a15", "A15", "Cortex-A15-like"} {
		cfg, err := March(name)
		if err != nil || cfg.CPU.XLEN != 32 {
			t.Errorf("March(%q) = %v, %v", name, cfg.Name, err)
		}
	}
	for _, name := range []string{"a72", "Cortex-A72-like"} {
		cfg, err := March(name)
		if err != nil || cfg.CPU.XLEN != 64 {
			t.Errorf("March(%q) = %v, %v", name, cfg.Name, err)
		}
	}
	if _, err := March("m1"); err == nil {
		t.Error("unknown march accepted")
	}
}

func TestLevelResolution(t *testing.T) {
	for in, want := range map[string]int{"O0": 0, "o1": 1, "2": 2, "O3": 3} {
		lvl, err := Level(in)
		if err != nil || int(lvl) != want {
			t.Errorf("Level(%q) = %v, %v", in, lvl, err)
		}
	}
	if _, err := Level("O9"); err == nil {
		t.Error("bad level accepted")
	}
}

func TestTargetDerivation(t *testing.T) {
	cfg, _ := March("a72")
	tgt := Target(cfg)
	if tgt.XLEN != 64 || tgt.NumArchRegs != 32 {
		t.Errorf("Target = %+v", tgt)
	}
}

func TestLoadSource(t *testing.T) {
	if _, _, err := LoadSource("", "", 0); err == nil {
		t.Error("empty selection accepted")
	}
	if _, _, err := LoadSource("qsort", "somefile", 0); err == nil {
		t.Error("both selections accepted")
	}
	name, src, err := LoadSource("qsort", "", 0)
	if err != nil || name != "qsort" || len(src) == 0 {
		t.Errorf("benchmark load failed: %v", err)
	}
	if _, _, err := LoadSource("nosuch", "", 0); err == nil {
		t.Error("unknown benchmark accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mc")
	if err := os.WriteFile(path, []byte("func main() {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	name, src, err = LoadSource("", path, 0)
	if err != nil || name != path || src != "func main() {}" {
		t.Errorf("file load: %q %q %v", name, src, err)
	}
	if _, _, err := LoadSource("", filepath.Join(dir, "missing.mc"), 0); err == nil {
		t.Error("missing file accepted")
	}
}

// TestStudyFlags parses each tool's flag set from a fresh FlagSet and
// checks what its values resolve to. Values that must be rejected are
// checked through the error-returning resolvers the exiting ones wrap.
func TestStudyFlags(t *testing.T) {
	all := []string{"march", "O", "bench", "src", "size", "faults", "seed",
		"parallel", "prune", "checkpoints", "cache", "cache-max-mb"}
	cacheDir := t.TempDir()
	gomaxprocs := runtime.GOMAXPROCS(0)
	def := faultinj.DefaultCheckpoints
	type want struct {
		machine string // config name; "" when -march must not resolve
		level   string // "" when -O must not resolve
		program string // "" when -bench/-src must not resolve
		faults  int
		budget  int // resolved checkpoint budget
		workers int
		cache   bool
	}
	for _, tc := range []struct {
		name     string
		defaults func(*StudyFlags)
		args     []string
		parseErr bool
		want     want
	}{
		{name: "sevinject defaults", args: []string{"-bench", "qsort"},
			want: want{"Cortex-A15-like", "O2", "qsort", 2000, def, gomaxprocs, false}},
		{name: "sevablate defaults",
			defaults: func(f *StudyFlags) { f.March, f.Bench, f.Faults = "a72", "gsm", 200 },
			want:     want{"Cortex-A72-like", "O2", "gsm", 200, def, gomaxprocs, false}},
		{name: "sevrepro defaults", defaults: func(f *StudyFlags) { f.Faults = 150 },
			want: want{"Cortex-A15-like", "O2", "", 150, def, gomaxprocs, false}},
		{name: "sevanalyze defaults leave -O empty", defaults: func(f *StudyFlags) { f.Level = "" },
			want: want{"Cortex-A15-like", "", "", 2000, def, gomaxprocs, false}},
		{name: "overrides", args: []string{"-march", "a72", "-O", "3", "-bench", "sha", "-faults", "7",
			"-checkpoints", "16", "-parallel", "3", "-cache", cacheDir, "-cache-max-mb", "1"},
			want: want{"Cortex-A72-like", "O3", "sha", 7, 16, 3, true}},
		{name: "bad march", args: []string{"-march", "m1", "-bench", "qsort"},
			want: want{"", "O2", "qsort", 2000, def, gomaxprocs, false}},
		{name: "bad level", args: []string{"-O", "O9", "-bench", "qsort"},
			want: want{"Cortex-A15-like", "", "qsort", 2000, def, gomaxprocs, false}},
		{name: "bench with src", args: []string{"-bench", "qsort", "-src", "p.mc"},
			want: want{"Cortex-A15-like", "O2", "", 2000, def, gomaxprocs, false}},
		{name: "checkpoints 0 disables", args: []string{"-checkpoints", "0"},
			want: want{"Cortex-A15-like", "O2", "", 2000, -1, gomaxprocs, false}},
		{name: "no fastexit flag", args: []string{"-fastexit=false"}, parseErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewStudyFlags()
			if tc.defaults != nil {
				tc.defaults(f)
			}
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f.Register(fs, all...)
			if err := fs.Parse(tc.args); (err != nil) != tc.parseErr {
				t.Fatalf("parse %v: err = %v, want error %v", tc.args, err, tc.parseErr)
			}
			if tc.parseErr {
				return
			}
			w := tc.want
			if w.machine == "" {
				if _, err := March(f.March); err == nil {
					t.Errorf("-march %q accepted", f.March)
				}
			} else if cfg := f.Machine(); cfg.Name != w.machine {
				t.Errorf("Machine() = %q, want %q", cfg.Name, w.machine)
			}
			if w.level == "" {
				if _, err := Level(f.Level); err == nil {
					t.Errorf("-O %q accepted", f.Level)
				}
			} else if l := f.OptLevel(); l.String() != w.level {
				t.Errorf("OptLevel() = %v, want %q", l, w.level)
			}
			if w.program == "" {
				if _, _, err := LoadSource(f.Bench, f.Src, f.Size); err == nil {
					t.Errorf("-bench %q -src %q accepted", f.Bench, f.Src)
				}
			} else if name, _ := f.Source(); name != w.program {
				t.Errorf("Source() = %q, want %q", name, w.program)
			}
			if f.Faults != w.faults || f.CheckpointBudget() != w.budget || f.Workers() != w.workers {
				t.Errorf("faults %d, budget %d, workers %d; want %d, %d, %d",
					f.Faults, f.CheckpointBudget(), f.Workers(), w.faults, w.budget, w.workers)
			}
			if cache := f.OpenCache(); (cache != nil) != w.cache {
				t.Errorf("OpenCache() = %v, want a cache %v", cache, w.cache)
			}
		})
	}
}
