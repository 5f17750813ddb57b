// Command perfbench is the repository's end-to-end benchmark: REST request
// in, durable ack out. It starts the orchestrator's real handler tree on a
// loopback listener in process, drives one workload open loop from a seeded
// Poisson schedule over one keep-alive connection plus one SSE watcher,
// then closed loop, checks that every output is correct, and prints the
// metrics. With -trace 1 it instead runs the workload untraced and then
// traced, and prints the per-layer breakdown. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload durable-churn --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object; a failed check
// exits 1 without it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setups is how many times a run builds the daemon; setup_s is the median.
const setups = 5

func main() {
	name := flag.String("workload", "", "workload: durable-churn, epoch-readmix or squeeze-storm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Data dirs live in the checkout's build directory and go away at exit.
	workDir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	metrics, attempted, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, workDir)
	os.RemoveAll(workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := make(map[string]any, len(metrics))
	for _, m := range metrics {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, _ := json.Marshal(map[string]any{"correct": true, "attempted": attempted, "failed": 0, "metrics": out})
	fmt.Println(string(b))
}

// run measures one workload and returns the metrics of the JSON line,
// after printing every metric that applies to the workload. attempted
// counts the requests of the measured passes; every one of them succeeded,
// or the run would have failed its checks.
func run(w *workload, seed int64, seconds time.Duration, trace bool, workDir string) (_ []metric, attempted int, err error) {
	base := time.Now()
	if !trace {
		p, err := runPass(w, seed, seconds, passOpts{setups: setups, closed: true}, workDir, base)
		if err != nil {
			return nil, 0, err
		}
		gated, extra, err := endToEnd(p)
		if err != nil {
			return nil, 0, err
		}
		attempted = len(p.results) + len(p.closed)
		fmt.Printf("# %s seed=%d open loop %.0f/s for %s, closed loop after; 1 request connection + 1 SSE watcher\n",
			w.name, seed, w.rate, p.openEnd-p.openStart)
		printMetrics(gated)
		printMetrics(extra)
		return gated, attempted, nil
	}
	// The untraced pass sets up as often as an untraced run does, which
	// also warms the process, so the traced pass after it is not the only
	// one to run warm.
	u, err := runPass(w, seed, seconds, passOpts{setups: setups}, workDir, base)
	if err != nil {
		return nil, 0, fmt.Errorf("untraced pass: %w", err)
	}
	p, err := runPass(w, seed, seconds, passOpts{setups: 1, tr: newTracer(base)}, workDir, base)
	if err != nil {
		return nil, 0, fmt.Errorf("traced pass: %w", err)
	}
	if err := sameOutcomes(u, p); err != nil {
		return nil, 0, fmt.Errorf("traced run diverged: %w", err)
	}
	ls, err := layers(u, p)
	if err != nil {
		return nil, 0, err
	}
	fmt.Printf("# %s seed=%d per-layer breakdown (traced pass; go.* from the untraced pass)\n", w.name, seed)
	printMetrics(ls)
	return ls, len(u.results) + len(p.results), nil
}

func printMetrics(metrics []metric) {
	for _, m := range metrics {
		fmt.Printf("%-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
}
