// Command stationbench is the repository's end-to-end benchmark. It runs
// one named workload at a given seed for a given number of seconds and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with the
// program's obs layer off. With --trace 1 the run measures an untraced
// phase and then a traced phase on identical inputs, and the metrics are
// the per-layer ledger (see README.md). Any failed output check makes
// "correct" false and the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed the committed goldens (golden.json) were
// recorded at; it is the paper protocol's seed in EXPERIMENTS.md.
const defaultSeed = 42

// setupReps is how many times each workload builds its fixture; setup_s
// is the median.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// spanDir is where a traced run writes its spans, relative to the
// checkout root the benchmark runs from.
const spanDir = ".bench_build/stationbench"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed output check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note prints a human-readable line; only the final line of stdout is
// machine-read.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

var workloads = map[string]func(options) (*report, error){
	"ward-host":      runWardHost,
	"sealed-uplink":  runSealedUplink,
	"paper-protocol": runPaperProtocol,
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("stationbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: ward-host, sealed-uplink or paper-protocol")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = per-layer ledger run, 0 = end-to-end run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "stationbench: need --workload in %v, --seconds > 0, --trace 0|1\n", names)
		os.Exit(2)
	}
	o.trace = trace == 1

	start := time.Now()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stationbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "stationbench: output check failed: %s\n", p)
	}
	note("%s seed=%d trace=%v finished in %.1f s", o.workload, o.seed, o.trace, time.Since(start).Seconds())
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stationbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
