// Command txbench is the repository's benchmark. It runs one named
// workload against txkvd's serving path (txkv.Server behind net/http
// on a loopback socket) or against the keyed store in-process, on the
// runtime configuration txkvd ships, checks the run for correctness,
// and prints its metrics: the end-to-end set, or with --trace 1 the
// per-layer set from a separate traced run. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics; the lines before it are the same figures as a table,
// with sample counts and the staircase's probes.
//
// Build and run it from the repository root with run.sh:
//
//	bash txbench/run.sh --workload counter-hot-local --seed 1 --seconds 30 --trace 0
//	bash txbench/run.sh --selfcheck
//
// The workloads, the metrics and what each layer metric is expected
// to move are described in txbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload: kv-read-http, counter-hot-local or doc-batched-local")
		seed      = flag.Uint64("seed", 1, "seed of the generated ops")
		seconds   = flag.Int("seconds", 30, "length of the measured window in seconds")
		traced    = flag.Int("trace", 0, "1 = the traced run, which reports the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "check BENCHMARK.json against the metrics each workload emits, and smoke every workload")
	)
	flag.Parse()
	if *selfcheck {
		if err := runSelfcheck("BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "txbench: selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("txbench: selfcheck ok")
		return
	}
	sp, err := specByName(*workload)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "txbench:", err)
		os.Exit(2)
	}
	res := run(sp, *seed, *seconds, *traced == 1)
	fmt.Printf("txbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d users=%d\n",
		sp.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), users)
	for _, mt := range res.metrics {
		fmt.Printf("  %-32s %16.4f %s\n", mt.name, mt.value, mt.unit)
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "txbench: correctness:", res.err)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "txbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !res.correct {
		os.Exit(1)
	}
}

func run(sp *spec, seed uint64, secs int, traced bool) *result {
	if traced {
		return runTraced(sp, seed, secs)
	}
	return runE2E(sp, seed, secs)
}

// json renders the result line.
func (r *result) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, mt := range r.metrics {
		out.Metrics[mt.name] = val{mt.value, mt.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
