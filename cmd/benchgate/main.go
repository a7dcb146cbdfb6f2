// Command benchgate turns a benchmark run into a pass/fail regression
// gate. It reads `go test -bench` output on stdin and extracts the
// ns/op of one benchmark. It then compares that figure in one of two
// ways.
//
// Against a number recorded in a bench trajectory file
// (BENCH_checkpoint.json / BENCH_cache.json), addressed by a dotted
// JSON path:
//
//	go test -run '^$' -bench 'BenchmarkInjectionCell' -benchtime=1x . |
//	    go run ./cmd/benchgate -baseline BENCH_checkpoint.json -max-regression 2
//
//	go test -run '^$' -bench 'BenchmarkCachedStudy' -benchtime=1x . |
//	    go run ./cmd/benchgate -baseline BENCH_cache.json \
//	        -bench 'BenchmarkCachedStudy/warm' -metric per_prep.warm.ns_per_op
//
// The gate fails (exit 1) when the measured time exceeds the baseline
// by more than the allowed factor. The factor is deliberately loose:
// CI runners are noisy and -benchtime=1x is a single iteration, so the
// gate is a tripwire for order-of-magnitude regressions (a lost fast
// path, an accidental full-copy restore, a cache miss where a hit
// belongs), not a microbenchmark judge.
//
// Or against another benchmark of the same run, with -against: the
// gate fails when the benchmark's ns/op exceeds -max-ratio times the
// other's. Both figures come from one host and one run, so the ratio
// transfers between hosts where absolute ns/op do not:
//
//	go test -run '^$' -bench 'BenchmarkInjectionCell' -benchtime=32x . |
//	    go run ./cmd/benchgate -bench BenchmarkInjectionCell/fastpath \
//	        -against BenchmarkInjectionCell/reference -max-ratio 0.25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "BENCH_checkpoint.json", "bench trajectory file holding the recorded ns/op")
	bench := flag.String("bench", "BenchmarkInjectionCell/fastpath", "benchmark name to gate on (prefix match on the output line)")
	metric := flag.String("metric", "per_injection.fastpath.ns_per_op", "dotted JSON path of the baseline ns/op inside the trajectory file")
	maxRegression := flag.Float64("max-regression", 2, "fail when measured ns/op exceeds baseline by more than this factor")
	against := flag.String("against", "", "gate on the ratio to this benchmark of the same run instead of a baseline file")
	maxRatio := flag.Float64("max-ratio", 1, "with -against: fail when the ratio of the two ns/op exceeds this")
	flag.Parse()

	if *against != "" {
		got, err := scanNsPerOp(os.Stdin, *bench, *against)
		if err != nil {
			fatalf("%v", err)
		}
		ratio := got[*bench] / got[*against]
		fmt.Printf("benchgate: %s %.0f ns/op, %s %.0f ns/op, ratio %.3f (limit %.3f)\n",
			*bench, got[*bench], *against, got[*against], ratio, *maxRatio)
		if ratio > *maxRatio {
			fatalf("regression: ratio %.3f exceeds the %.3f limit", ratio, *maxRatio)
		}
		return
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatalf("read baseline: %v", err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		fatalf("parse %s: %v", *baseline, err)
	}
	base, err := metricValue(doc, *metric)
	if err != nil {
		fatalf("%s: %v", *baseline, err)
	}

	got, err := scanNsPerOp(os.Stdin, *bench)
	if err != nil {
		fatalf("%v", err)
	}
	measured := got[*bench]

	ratio := measured / base
	fmt.Printf("benchgate: %s measured %.0f ns/op, baseline %.0f ns/op (%s %s), ratio %.2fx (limit %.2fx)\n",
		*bench, measured, base, *baseline, *metric, ratio, *maxRegression)
	if ratio > *maxRegression {
		fatalf("regression: %.2fx exceeds the %.2fx limit", ratio, *maxRegression)
	}
}

// metricValue walks a decoded JSON document by a dotted path
// ("per_prep.warm.ns_per_op") and returns the positive number at the
// end of it.
func metricValue(doc any, path string) (float64, error) {
	cur := doc
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("metric %s: %q is not an object", path, part)
		}
		cur, ok = m[part]
		if !ok {
			return 0, fmt.Errorf("metric %s: no field %q", path, part)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("metric %s: not a number", path)
	}
	if v <= 0 {
		return 0, fmt.Errorf("metric %s: %v is not a positive ns/op", path, v)
	}
	return v, nil
}

// scanNsPerOp echoes stdin through (so the CI log keeps the full
// benchmark output) and returns, per named benchmark, the ns/op of the
// first line naming it. Benchmark output lines look like:
//
//	BenchmarkInjectionCell/fastpath-8    3594    577754 ns/op    8 B/op ...
func scanNsPerOp(r *os.File, benches ...string) (map[string]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	found := map[string]float64{}
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		for _, bench := range benches {
			if _, ok := found[bench]; ok || !strings.HasPrefix(line, bench) {
				continue
			}
			fields := strings.Fields(line)
			for i := 2; i < len(fields); i++ {
				if fields[i] == "ns/op" {
					v, err := strconv.ParseFloat(fields[i-1], 64)
					if err != nil {
						return nil, fmt.Errorf("parse ns/op on %q: %v", line, err)
					}
					found[bench] = v
					break
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read benchmark output: %v", err)
	}
	for _, bench := range benches {
		if v, ok := found[bench]; !ok || v <= 0 {
			return nil, fmt.Errorf("no positive %q ns/op line in benchmark output", bench)
		}
	}
	return found, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1) //lint:exit CLI gate verdict; nothing is open to clean up
}
