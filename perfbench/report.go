package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// provenance identifies the code and the host a result was measured on;
// host-time metrics are only comparable between results whose host fields
// agree.
func provenance(commit, source string) map[string]any {
	return map[string]any{
		"commit":     commit,
		"source":     source,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints a readable summary of the runs and metrics to standard
// output, ahead of the result line.
func report(w workload, seed uint64, rounds [][]rep, res *result) {
	fmt.Printf("# %s seed %d: %s, %d txns per run at MPL %d, failed_frac %.4f\n",
		w.name, seed, w.kind, w.txns, w.mpl, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for i, round := range rounds {
		for _, r := range round {
			fmt.Printf("#   round %d: setup %.3fs, run %.3fs, %d allocs, %d deadlock retries, %.4g TPS, p99 %.1f ms\n",
				i, r.setup.Seconds(), r.wall.Seconds(), r.mallocs, r.sim.Retries, r.sim.TPS, ms(r.sim.RespP99NS))
		}
	}
	var keys []string
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Printf("#   %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
