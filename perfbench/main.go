// Command perfbench is the repository's TPC-B benchmark. It runs one
// workload per invocation through the stock tpcb run loops, checks that every
// run left the database in the state its committed transactions imply, and
// prints its metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload tpcb-hot --seed 1993 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// adds traced, CPU-profiled runs and per-layer microbenchmarks, and reports
// the per-layer metrics. It is normally started by run.py, which builds it;
// see NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "tpcb-hot", "workload name (see NOTES.md)")
	seed := flag.Uint64("seed", 1993, "workload seed (tpcb.Config.Seed)")
	seconds := flag.Int("seconds", 10, "host seconds of repeated measured runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	commit := flag.String("commit", "", "commit of the code under test, for provenance")
	source := flag.String("source", "", "digest of the source tree, for provenance")
	traceOut := flag.String("trace-out", "", "directory for the traced run's Chrome trace (empty: not written)")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %v)\n", workloadNames())
		os.Exit(2)
	}
	prov := provenance(*commit, *source)
	line, _ := json.Marshal(map[string]any{"provenance": prov, "workload": w.name, "seed": *seed})
	fmt.Println(string(line))

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
	}
	if res != nil {
		res.Correct = res.Correct && err == nil
		out, _ := json.Marshal(res)
		fmt.Println(string(out))
	}
	if err != nil || res == nil || !res.Correct {
		os.Exit(1)
	}
}
