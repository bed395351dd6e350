// Command perfbench is the repository's benchmark: it runs one seeded
// workload through the public sparksql API in a closed loop (one client, one
// statement at a time, one process), checks every answer against a reference
// computed without the engine, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics — as the last line of standard output.
//
//	go build -o perfbench . && ./perfbench -workload amplab-colfile -seed 1 -seconds 10 -trace 0
//
// README.md beside this file explains the workloads, the metrics and how to
// read the traced output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"amplab-colfile", "amplab-cached", "dml-mixed", "cluster-loopback"}

func newWorkload(name string, seed uint64, dir string) (workload, error) {
	switch name {
	case "amplab-colfile":
		return newAMPLab(seed, dir, false), nil
	case "amplab-cached":
		return newAMPLab(seed, dir, true), nil
	case "dml-mixed":
		return newDML(seed, dir), nil
	case "cluster-loopback":
		return newClusterWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workDir := flag.String("dir", ".bench_build/work", "directory for the run's data files (removed on exit)")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*workDir), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	w, err := newWorkload(*name, *seed, dir)
	if err == nil {
		res, err = runWorkload(w, *name, *seed, *seconds, *trace == 1)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	desc, _ := json.Marshal(map[string]any{"descriptor": res.descriptor})
	fmt.Println(string(desc))
	line, _ := json.Marshal(res.output())
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metric
	descriptor        map[string]any
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // nothing was measured; JSON has no NaN
	}
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) output() map[string]any {
	return map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}
