// Command perfbench is the repository benchmark. It runs one named
// workload for about --seconds of host time, checks every simulation's
// outputs, and prints one JSON result line last:
//
//	go run . --workload swim-fair --seed 1 --seconds 20 --trace 0
//
// Every workload is a closed-loop batch: the benchmark generates one
// simulation's full input from the seed, hands it to the program, waits
// for the result, and starts the next, one simulation at a time on one
// scheduling thread. --trace 0 reports the end-to-end metrics from the
// program's public entry points; --trace 1 additionally wires each
// simulation itself with timing decorators at the layer boundaries and
// reports per-layer metrics. See README.md for the metric catalogue.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"dare"
	"dare/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outDir holds checkpoints and span dumps, inside the checkout the
// benchmark runs from.
const outDir = ".bench_build/perfbench"

// config is one benchmark invocation.
type config struct {
	workload *workloadDef
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch and output directory inside the checkout
	sz       sizes

	// Self-test hooks: corrupt simulation 0's harness digest, or make
	// simulation 0 fail with an injected error.
	tamperDigest, forceError bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), " | ")+" | all")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "run length; sets how many simulations the run does")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	chosen := []*workloadDef{workloadByName(*name)}
	if *name == "all" {
		chosen = workloads
	}
	if chosen[0] == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s|all), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	// "all" runs every workload in turn, each ending in its result line.
	for _, w := range chosen {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: outDir, sz: fullSizes}
		res, err := bench(cfg, stdout, stderr)
		if err == nil {
			var line string
			if line, err = res.encode(); err == nil {
				fmt.Fprintln(stdout, line)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// simCount is how many simulations a run of the given length does. It
// depends on the length alone, not on the clock, so a seed names the same
// simulations on any machine and two runs of it attempt, and fail, the
// same ones.
func (w *workloadDef) simCount(seconds float64, trace bool) int {
	n := max(1, int(math.Round(seconds/w.simSeconds)))
	if trace {
		n = max(n, w.traceSims)
	}
	return n
}

// simSeed derives simulation i's seed from the workload seed.
func simSeed(seed uint64, i int) uint64 {
	return stats.NewRNG(seed).Split(uint64(i) + 1).Seed()
}

// bench runs the workload's simulations for this run length (and, traced,
// at least its fixed traced set), then reduces them to the result line.
// It prints a human-readable report on stdout first.
func bench(cfg config, stdout, stderr io.Writer) (*result, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	dare.SetParallelism(1)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	agg := &aggregate{}
	start := time.Now()
	for i, n := 0, cfg.workload.simCount(cfg.seconds, cfg.trace); i < n; i++ {
		var simTr *tracer
		if tr != nil && i < cfg.workload.traceSims {
			simTr = tr
			tr.run = i
		}
		so := simulate(cfg, i, simTr)
		if so.err != "" {
			fmt.Fprintf(stderr, "perfbench: %s simulation %d (seed %d) failed: %s\n", cfg.workload.name, i, simSeed(cfg.seed, i), so.err)
			for _, m := range so.more {
				fmt.Fprintf(stderr, "perfbench:   and: %s\n", m)
			}
		}
		agg.add(so, simTr != nil)
	}
	wall := time.Since(start).Seconds()

	res := &result{Correct: agg.mismatches == 0, Attempted: agg.sims, Failed: agg.failed, Metrics: map[string]metric{}}
	e2e := agg.endToEnd()
	var layers map[string]metric
	if cfg.trace {
		layers = agg.perLayer(tr, cfg.workload)
		res.Metrics = layers
		path := fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.dir, cfg.workload.name, cfg.seed)
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		for _, m := range endToEndMetrics {
			res.Metrics[m] = e2e[m]
		}
	}
	report(stdout, cfg, agg, e2e, layers, wall)
	return res, nil
}

// report prints every metric with its unit, the failures with their
// first error, and the traced run's attribution check.
func report(w io.Writer, cfg config, agg *aggregate, e2e, layers map[string]metric, wall float64) {
	fmt.Fprintf(w, "workload %s  seed %d  simulations %d  failed %d  mismatches %d  wall %.1fs\n",
		cfg.workload.name, cfg.seed, agg.sims, agg.failed, agg.mismatches, wall)
	for _, e := range agg.errors {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	printMetrics := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%s:\n", title)
		for _, n := range names {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	printMetrics("end to end", e2e)
	if layers != nil {
		printMetrics("per layer (traced)", layers)
	}
}
