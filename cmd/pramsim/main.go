// Command pramsim executes a sample N-processor PRAM program robustly on
// P restartable fail-stop processors (Theorem 4.1) and prints the
// accounting and, optionally, the simulated memory.
//
// Usage:
//
//	pramsim -prog prefix-sum -n 256 -p 16 -adv random -fail 0.2
//	pramsim -prog matmul -k 4 -dump
//
// The command is a thin client of internal/engine: flags parse into an
// engine.SimSpec, engine.ExecuteSim runs and validates the simulation,
// and this file only formats the result.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// cliOptions holds the flags that shape output rather than the
// simulation itself.
type cliOptions struct {
	dump bool
}

// parseSpec maps the flag surface onto an engine.SimSpec plus the
// process-level options; the spec's own Validate (inside ExecuteSim)
// does the semantic checks.
func parseSpec(args []string) (engine.SimSpec, cliOptions, error) {
	fs := flag.NewFlagSet("pramsim", flag.ContinueOnError)
	var spec engine.SimSpec
	var opts cliOptions
	engName := fs.String("engine", "vx", "Write-All engine: vx (paper's V+X) or x")
	fs.BoolVar(&opts.dump, "dump", false, "print the final simulated memory")
	fs.StringVar(&spec.Program, "prog", "prefix-sum", "program: "+strings.Join(engine.Programs(), ", "))
	fs.IntVar(&spec.N, "n", 256, "simulated processor count N (every program but the matrix product)")
	fs.IntVar(&spec.K, "k", 4, "matrix dimension K (the matrix product)")
	fs.IntVar(&spec.P, "p", 0, "real processor count P (0 means P = N)")
	fs.StringVar(&spec.Adversary, "adv", "none", "adversary: "+strings.Join(engine.SimAdversaries(), ", "))
	fs.Int64Var(&spec.Seed, "seed", 1, "random seed")
	fs.Float64Var(&spec.FailProb, "fail", 0.1, "per-tick failure probability (random)")
	fs.Float64Var(&spec.RestartProb, "restart", 0.5, "per-tick restart probability (random)")
	fs.BoolVar(&spec.PerStep, "steps", false, "print per-simulated-step work and overhead (Theorem 4.1's per-step measures)")
	if err := fs.Parse(args); err != nil {
		return spec, opts, err
	}
	// The historical flag treated every value but "x" as "vx"; keep that
	// so the spec (which is strict) never rejects a CLI invocation.
	spec.Engine = "vx"
	if *engName == "x" {
		spec.Engine = "x"
	}
	return spec, opts, nil
}

func run(args []string) error {
	spec, opts, err := parseSpec(args)
	if err != nil {
		return err
	}

	res, err := engine.ExecuteSim(context.Background(), spec)
	if err != nil {
		return err
	}

	m := res.Metrics
	tau := res.Steps
	fmt.Printf("program           %s\n", res.Program)
	fmt.Printf("engine            %s\n", res.EngineDisplay)
	fmt.Printf("N (simulated)     %d\n", res.SimN)
	fmt.Printf("P (real)          %d\n", res.P)
	fmt.Printf("steps tau         %d\n", tau)
	fmt.Printf("ticks             %d\n", m.Ticks)
	fmt.Printf("completed work S  %d  (S/(tau*N) = %.2f)\n",
		m.S(), float64(m.S())/(float64(tau)*float64(res.SimN)))
	fmt.Printf("failures/restarts %d/%d\n", m.Failures, m.Restarts)
	fmt.Printf("overhead sigma    %.3f\n",
		float64(m.S())/(float64(tau)*float64(m.N)+float64(m.FSize())))
	if res.Validated {
		fmt.Println("output            validated against failure-free semantics")
	}
	if opts.dump && res.Memory != nil {
		fmt.Printf("memory            %v\n", res.Memory)
	}
	if spec.PerStep {
		fmt.Println()
		fmt.Printf("%6s %10s %8s %8s %10s\n", "step", "S", "|F|", "ticks", "sigma")
		for _, sm := range res.StepStats {
			fmt.Printf("%6d %10d %8d %8d %10.2f\n",
				sm.Step, sm.S, sm.F, sm.Ticks, sm.Sigma(res.SimN))
		}
	}
	return nil
}
