// Command simbench measures the wall-clock speed of the discrete-event core
// itself and records the results as BENCH_simcore.json, the artifact CI
// uploads so the simulator's events/sec trajectory is visible PR over PR.
//
// It runs the same scenarios as the go-test benchmarks in internal/tpcb
// (BenchmarkSimCoreTPCB): the TPC-B workload at MPL 8, 64, and 256, traced
// and untraced, on the kernel-embedded system, plus the user-level LFS
// system at MPL 64 where commit-wait parking exercises the WaitQueue. The
// simulated outcome of every scenario is deterministic; only the wall_ns and
// events_per_sec fields vary with the machine, which is the point — they
// measure the simulator, not the simulated system. The report's provenance
// block (commit, Go version, GOMAXPROCS, CPU count and model) names the host
// and code the wall numbers came from; compare them only between reports
// whose host fields agree.
//
// Usage:
//
//	simbench                          # all scenarios → BENCH_simcore.json
//	simbench -out bench.json -reps 3  # best-of-3 per scenario
//	simbench -short                   # skip the slow MPL=256 scenarios
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/sim"
	"repro/internal/tpcb"
)

// scenario is one measured configuration.
type scenario struct {
	Name   string `json:"name"`
	System string `json:"system"`
	MPL    int    `json:"mpl"`
	Traced bool   `json:"traced"`

	Txns         int     `json:"txns"`
	SimulatedNS  int64   `json:"simulated_ns"`
	WallNS       int64   `json:"wall_ns"`
	Dispatches   int64   `json:"dispatches"`
	EventsPerSec float64 `json:"events_per_sec"`
	Deadlocks    int64   `json:"deadlocks"`
}

// provenance names the code and host a report was measured on.
type provenance struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

// report is the BENCH_simcore.json document.
type report struct {
	Provenance provenance `json:"provenance"`
	Txns       int        `json:"txns"`
	Scale      float64    `json:"scale"`
	Reps       int        `json:"reps"`
	Scenarios  []scenario `json:"scenarios"`
}

func main() {
	out := flag.String("out", "BENCH_simcore.json", "output file for the benchmark report")
	reps := flag.Int("reps", 1, "repetitions per scenario (best wall time is kept)")
	short := flag.Bool("short", false, "skip the slow MPL=256 scenarios")
	flag.Parse()

	type cfg struct {
		system string
		mpl    int
		traced bool
	}
	var cfgs []cfg
	for _, mpl := range []int{8, 64, 256} {
		if *short && mpl > 64 {
			continue
		}
		for _, traced := range []bool{false, true} {
			cfgs = append(cfgs, cfg{"kernel-lfs", mpl, traced})
		}
	}
	cfgs = append(cfgs, cfg{"user-lfs", 64, false})

	rep := report{
		Provenance: provenance{
			Commit:     gitCommit(),
			Go:         runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			CPU:        cpuModel(),
		},
		Txns:  tpcb.SimCoreBenchTxns,
		Scale: tpcb.SimCoreBenchScale,
		Reps:  *reps,
	}
	for _, c := range cfgs {
		s, err := measure(c.system, c.mpl, c.traced, *reps)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-34s %12d dispatches %10.3fs wall %12.0f events/s\n",
			s.Name, s.Dispatches, float64(s.WallNS)/1e9, s.EventsPerSec)
		rep.Scenarios = append(rep.Scenarios, s)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
}

// measure runs one scenario reps times and keeps the best (fastest wall
// time) repetition. Rig construction — the load phase — is excluded from the
// timed region, matching the go-test benchmarks.
func measure(system string, mpl int, traced bool, reps int) (scenario, error) {
	s := scenario{
		Name:   fmt.Sprintf("%s/mpl%d/traced=%v", system, mpl, traced),
		System: system,
		MPL:    mpl,
		Traced: traced,
		Txns:   tpcb.SimCoreBenchTxns,
	}
	for r := 0; r < reps; r++ {
		rig, cfg, err := tpcb.SimCoreBenchRig(system, mpl, traced)
		if err != nil {
			return s, fmt.Errorf("%s: %w", s.Name, err)
		}
		start := sim.WallNow()
		res, err := rig.RunMPL(cfg, tpcb.SimCoreBenchTxns, mpl)
		if err != nil {
			return s, fmt.Errorf("%s: %w", s.Name, err)
		}
		wall := sim.WallNow().Sub(start)
		if r == 0 || wall.Nanoseconds() < s.WallNS {
			s.SimulatedNS = res.Elapsed.Nanoseconds()
			s.WallNS = wall.Nanoseconds()
			s.Dispatches = res.Dispatches
			s.Deadlocks = rig.LockStats().Deadlocks
			if secs := wall.Seconds(); secs > 0 {
				s.EventsPerSec = float64(res.Dispatches) / secs
			}
		}
	}
	return s, nil
}

// gitCommit returns the checked-out commit, or "none" outside a git work
// tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
	os.Exit(1)
}
