// Command sevrun compiles and executes a MiniC program on a simulated
// microarchitecture, printing the program output and pipeline/cache
// statistics. With -oracle it also cross-checks the output against the
// reference interpreter.
//
// Usage:
//
//	sevrun -bench dijkstra -O O2 -march a72
//	sevrun -src prog.mc -O O0 -march a15 -oracle
package main

import (
	"flag"
	"fmt"
	"os"

	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/interp"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
)

func main() {
	sf := cli.NewStudyFlags()
	sf.Register(flag.CommandLine, "bench", "src", "size", "O", "march")
	asmFile := flag.String("asm", "", "SEV assembly file (bypasses the compiler)")
	oracle := flag.Bool("oracle", false, "cross-check against the reference interpreter")
	maxCycles := flag.Uint64("max-cycles", 1<<34, "cycle budget")
	flag.Parse()

	cfg := sf.Machine()
	level := sf.OptLevel()
	var prog *machine.Program
	var name, src string
	if *asmFile != "" {
		data, err := os.ReadFile(*asmFile)
		if err != nil {
			cli.Fatal(err)
		}
		ins, err := isa.Asm(string(data))
		if err != nil {
			cli.Fatal(err)
		}
		name = *asmFile
		prog = &machine.Program{
			Name: name, Code: isa.Assemble(ins),
			Entry: machine.CodeBase, GlobalSize: 1 << 16,
		}
	} else {
		var err error
		name, src = sf.Source()
		prog, err = compiler.Compile(src, name, level, cli.Target(cfg))
		if err != nil {
			cli.Fatal(err)
		}
	}
	// The reference interpreter is independent of the simulation, so the
	// -oracle run executes concurrently with the machine instead of
	// serially after it.
	type oracleRun struct {
		out []uint64
		err error
	}
	var oracleCh chan oracleRun
	if *oracle && *asmFile == "" {
		parsed := cli.MustParse(src)
		oracleCh = make(chan oracleRun, 1)
		go func() {
			out, err := interp.Run(parsed, cfg.CPU.XLEN, 1<<40)
			oracleCh <- oracleRun{out: out, err: err}
		}()
	}
	res := machine.New(cfg, prog).Run(*maxCycles)

	fmt.Printf("%s %s on %s: %s", name, level, cfg.Name, res.Outcome)
	if res.Reason != "" {
		fmt.Printf(" (%s)", res.Reason)
	}
	fmt.Println()
	for i, v := range res.Output {
		fmt.Printf("out[%d] = %d (%#x)\n", i, v, v)
	}
	s := res.Stats
	fmt.Printf("\ncycles       %12d\ninstructions %12d\nIPC          %12.3f\n",
		s.Cycles, s.Committed, s.IPC())
	fmt.Printf("branches     %12d  mispredicted %d (%.2f%%)\n",
		s.Branches, s.Mispredicts, pct(s.Mispredicts, s.Branches))
	fmt.Printf("loads/stores %12d / %d\n", s.Loads, s.Stores)
	fmt.Printf("L1I  hits %10d  misses %8d\n", res.L1I.Hits, res.L1I.Misses)
	fmt.Printf("L1D  hits %10d  misses %8d  writebacks %d\n", res.L1D.Hits, res.L1D.Misses, res.L1D.Writebacks)
	fmt.Printf("L2   hits %10d  misses %8d\n", res.L2.Hits, res.L2.Misses)
	fmt.Printf("avg occupancy: ROB %.1f  IQ %.1f  LQ %.1f  SQ %.1f  live PRF %.1f\n",
		avg(s.ROBOccupancy, s.Cycles), avg(s.IQOccupancy, s.Cycles),
		avg(s.LQOccupancy, s.Cycles), avg(s.SQOccupancy, s.Cycles),
		avg(s.PRFLive, s.Cycles))

	if oracleCh != nil {
		o := <-oracleCh
		if o.err != nil {
			cli.Fatal(o.err)
		}
		want := o.out
		if len(want) != len(res.Output) {
			fmt.Printf("\nORACLE MISMATCH: %d outputs, interpreter has %d\n", len(res.Output), len(want))
			return
		}
		for i := range want {
			if want[i] != res.Output[i] {
				fmt.Printf("\nORACLE MISMATCH at %d: machine %#x, interpreter %#x\n",
					i, res.Output[i], want[i])
				return
			}
		}
		fmt.Println("\noracle: outputs match the reference interpreter")
	}
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func avg(sum, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
