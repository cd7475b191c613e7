// Command perfbench is the repository benchmark: it runs one workload for a
// fixed wall-clock budget, checks the simulated output, and prints its
// metrics. With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// replays the same inputs through each layer's public calls, with spans and
// a CPU profile, and prints the per-layer metrics instead. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"sim_s_per_s": {"value": 812.3, "unit": "s/s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int
	failures          []string // first few failure reasons
	hash              string   // sha256 of the simulated output
	metrics           []namedMetric
}

type namedMetric struct {
	name, unit string
	value      float64
}

func (o *outcome) set(name, unit string, v float64) {
	o.metrics = append(o.metrics, namedMetric{name, unit, v})
}

// fail records n failed attempts with a reason.
func (o *outcome) fail(n int, reason string) {
	o.failed += n
	if len(o.failures) < 10 {
		o.failures = append(o.failures, reason)
	}
}

// runOpts are the command-line inputs every workload receives.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"paper-sweep": func(o runOpts) (*outcome, error) { return runSweep("paper-sweep", paperSweepPlan(o.seed), o) },
	"web-churn":   func(o runOpts) (*outcome, error) { return runSweep("web-churn", webChurnPlan(o.seed), o) },
	"many-flows":  runManyFlows,
}

var workloadOrder = []string{"paper-sweep", "web-churn", "many-flows"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 25, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q (want %s, or all)", *name, strings.Join(workloadOrder, ", "))
	}
	if *trace == 1 {
		if err := checkLayerTable("."); err != nil {
			return err
		}
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	out := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		o, err := workloads[n](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		fmt.Printf("%s (seed %d, %ds, trace %d): %d attempted, %d failed, output sha256 %s\n",
			n, *seed, *seconds, *trace, o.attempted, o.failed, o.hash)
		for _, f := range o.failures {
			fmt.Printf("  FAILED %s\n", f)
		}
		for _, m := range o.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return fmt.Errorf("%s: metric %s is %v", n, m.name, m.value)
			}
			fmt.Printf("  %-32s %16.6g %s\n", m.name, m.value, m.unit)
			key := m.name
			if len(names) > 1 {
				key = n + "/" + m.name
			}
			out.Metrics[key] = metricValue{Value: m.value, Unit: m.unit}
		}
		out.Attempted += o.attempted
		out.Failed += o.failed
	}
	if out.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
