package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/tpcb"
)

// minRounds is the fewest untraced rounds per invocation: the simulated
// outputs are compared across them, and the host-time metrics are their
// medians.
const minRounds = 3

// minSetups is the fewest set-up timings behind setup_s.
const minSetups = 10

// minProfiled is the least host time of traced runs to profile: about 300
// samples at runtime/pprof's 100 Hz.
const minProfiled = 3 * time.Second

// rep is one build-load-run-verify cycle on a fresh rig.
type rep struct {
	setup   time.Duration // host time to build the rig and load the database
	wall    time.Duration // host time of the measured run, drain included
	mallocs uint64        // heap allocations during the measured run
	sim     simOutput
	// prof is the CPU profile of a traced run (nil otherwise).
	prof []byte
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

// simOutput is everything a run computes in simulated time. It is
// deterministic for a given workload and seed, so every run of an
// invocation, traced or not, must produce the same bytes.
type simOutput struct {
	Txns        int64    `json:"txns"`
	Attempts    int64    `json:"attempts"`
	ElapsedNS   int64    `json:"elapsed_ns"`
	WriterNS    int64    `json:"writer_ns"`
	TPS         float64  `json:"tps"`
	RespP99NS   int64    `json:"resp_p99_ns"`
	RespSumNS   int64    `json:"resp_sum_ns"`
	Retries     int64    `json:"retries"`
	Dispatches  int64    `json:"dispatches"`
	IdleSteps   int64    `json:"idle_steps"`
	IdleNS      int64    `json:"idle_ns"`
	DrainNS     int64    `json:"drain_ns"`
	Scans       int64    `json:"scans"`
	ScanRows    int64    `json:"scan_rows"`
	ScanSumNS   int64    `json:"scan_sum_ns"`
	ScanP50NS   int64    `json:"scan_p50_ns"`
	ScanRetries int64    `json:"scan_retries"`
	Layers      counters `json:"layers"` // every layer's Stats() over the run
}

// measure runs rounds of workload w untraced for at least budget of host
// time (and at least minRounds times); a round is one run per seed of
// w.runSeeds(seed). With perLayer it then repeats traced runs of the first
// seed until minProfiled of them are profiled, and times the layer
// microbenchmarks. It returns the benchmark's result line; any failed check
// makes the result incorrect.
func measure(w workload, seed uint64, budget time.Duration, perLayer bool, traceOut string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	// run makes one run and counts its txns into the result line.
	run := func(seed uint64, traced bool, traceOut string) (rep, error) {
		r, err := runRep(w, seed, traced, traceOut)
		res.Attempted += r.sim.Txns + r.failed()
		if err != nil {
			res.Failed += max(r.failed(), 1)
			res.Attempted = max(res.Attempted, res.Failed)
		}
		return r, err
	}
	// same checks that a run's simulated output equals that of the first
	// run with its seed.
	refs := map[uint64][]byte{}
	same := func(seed uint64, r rep) {
		b, _ := json.Marshal(r.sim)
		if ref, ok := refs[seed]; !ok {
			refs[seed] = b
		} else if !bytes.Equal(b, ref) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: simulated output differs between runs:\n%s\n%s\n", seed, b, ref)
		}
	}

	seeds := w.runSeeds(seed)
	var rounds [][]rep
	var rss []float64 // peak resident memory of each round
	sampler := startRSS()
	defer sampler.close()
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < budget {
		// Each round's peak starts from the memory the process holds with
		// no rig.
		runtime.GC()
		debug.FreeOSMemory()
		sampler.takePeak()
		var round []rep
		for _, s := range seeds {
			r, err := run(s, false, "")
			if err != nil {
				return res, err
			}
			same(s, r)
			round = append(round, r)
		}
		rounds = append(rounds, round)
		rss = append(rss, sampler.takePeak())
	}
	if !perLayer {
		if err := endToEnd(w, seed, rounds, rss, res.Metrics); err != nil {
			return res, err
		}
		report(w, seed, rounds, res)
		return res, nil
	}

	// The per-layer metrics and the trace file come from the first traced
	// run; the CPU profiles of all of them are folded together.
	var traced []rep
	var profiled time.Duration
	hostNS := map[string]float64{}
	for len(traced) == 0 || profiled < minProfiled {
		out := ""
		if len(traced) == 0 {
			out = traceOut
		}
		r, err := run(seeds[0], true, out)
		if err != nil {
			return res, err
		}
		same(seeds[0], r)
		if err := foldProfile(r.prof, hostNS); err != nil {
			return res, err
		}
		traced = append(traced, r)
		profiled += r.wall
	}
	for k, v := range traced[0].layers {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	for k, v := range hostShares(hostNS) {
		res.Metrics[k] = metric{v, "frac"}
	}
	// The overhead compares runs of the same seed.
	var untraced []rep
	for _, round := range rounds {
		untraced = append(untraced, round[0])
	}
	wall := func(r rep) float64 { return r.wall.Seconds() }
	res.Metrics["trace.overhead"] = metric{median(traced, wall) / median(untraced, wall), "ratio"}
	micro, err := runMicro(w, seed)
	if err != nil {
		return res, err
	}
	for k, v := range micro {
		res.Metrics[k] = metric{v, layerUnit(k)}
	}
	report(w, seed, append(rounds, traced), res)
	return res, nil
}

// endToEnd adds the end-to-end metrics of the untraced rounds to m.
// Throughput and the mean response time pool a round's runs, the p99 is the
// median of the runs' own p99s (a run with an unusually long cleaning stall
// moves it less than it moves a pooled or averaged p99), and the host-time
// metrics are medians over rounds. rss holds each round's peak resident
// memory.
func endToEnd(w workload, seed uint64, rounds [][]rep, rss []float64, m map[string]metric) error {
	var txns, writerNS, respNS int64
	var p99 []float64
	for _, r := range rounds[0] {
		txns += r.sim.Txns
		writerNS += r.sim.WriterNS
		respNS += r.sim.RespSumNS
		p99 = append(p99, ms(r.sim.RespP99NS))
	}
	var perWall, allocs, setups []float64
	for _, round := range rounds {
		var wall time.Duration
		var mallocs uint64
		for _, r := range round {
			wall += r.wall
			mallocs += r.mallocs
			setups = append(setups, r.setup.Seconds())
		}
		perWall = append(perWall, float64(txns)/wall.Seconds())
		allocs = append(allocs, float64(mallocs)/float64(txns))
	}
	// Set-up is short next to a run; time extra set-ups so that its median
	// has minSetups samples.
	for len(setups) < minSetups {
		_, d, err := buildRig(w, seed, false)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	m["tps"] = metric{float64(txns) / (float64(writerNS) / 1e9), "1/s"}
	m["resp_mean_ms"] = metric{ms(respNS) / float64(txns), "ms"}
	m["resp_p99_ms"] = metric{medianOf(p99), "ms"}
	m["txns_per_wall_s"] = metric{medianOf(perWall), "1/s"}
	m["allocs_per_txn"] = metric{medianOf(allocs), "count"}
	m["max_rss_mb"] = metric{medianOf(rss), "MB"}
	m["setup_s"] = metric{medianOf(setups), "s"}
	return nil
}

// failed is the number of txns a client started but never committed. The
// run loops stop a run at the first non-deadlock error, so this is zero for
// every run that returned without error.
func (r rep) failed() int64 { return r.sim.Attempts - r.sim.Txns - r.sim.Retries }

// runRep builds a fresh rig, runs the workload once and verifies the result.
// A traced run also profiles the host CPU, writes the Chrome trace to
// traceOut (when set) and collects the per-layer metrics.
func runRep(w workload, seed uint64, traced bool, traceOut string) (rep, error) {
	var r rep
	cfg := w.config(seed)
	rig, setup, err := buildRig(w, seed, traced)
	r.setup = setup
	if err != nil {
		return r, err
	}
	bs := newBenchSystem(rig)
	before, userBefore := layerCounters(rig), userPoolCounters(rig)

	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, err
		}
	}
	t1 := time.Now()
	var res tpcb.MixedResult
	if w.scanners > 0 {
		res, err = tpcb.RunMixedMPLTraced(bs, rig.Clock, cfg, w.txns, w.mpl, w.scanners, w.scansEach, tpcb.ScanSnapshot, bs.idleHook(), rig.Tracer)
	} else {
		res.Result, err = tpcb.RunBenchmarkMPLTraced(bs, rig.Clock, cfg, w.txns, w.mpl, bs.idleHook(), rig.Tracer)
		res.WriterElapsed, res.WriterTPS = res.Elapsed, res.TPS
	}
	r.wall = time.Since(t1)
	if traced {
		pprof.StopCPUProfile()
		r.prof = prof.Bytes()
	}
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	d := layerCounters(rig).minus(before)
	r.sim = simulated(bs, res, d)
	if err != nil {
		return r, fmt.Errorf("run: %w", err)
	}
	if err := verify(w, cfg, bs, rig, res, r.sim); err != nil {
		return r, fmt.Errorf("incorrect output: %w", err)
	}
	if traced {
		all := maps.Clone(d)
		maps.Copy(all, userPoolCounters(rig).minus(userBefore))
		if r.layers, err = layerMetrics(w, rig, all, r.sim); err != nil {
			return r, fmt.Errorf("incorrect output: %w", err)
		}
		if traceOut != "" {
			if err := writeTrace(rig, filepath.Join(traceOut, fmt.Sprintf("%s-seed%d.json.gz", w.name, seed))); err != nil {
				return r, err
			}
		}
	}
	return r, nil
}

// buildRig builds and loads a fresh rig and returns the host time it took.
func buildRig(w workload, seed uint64, traced bool) (*tpcb.Rig, time.Duration, error) {
	// Drop the previous rig first, so set-up time and peak memory do not
	// depend on how many runs came before.
	runtime.GC()
	debug.FreeOSMemory()
	start := time.Now()
	rig, err := tpcb.BuildRig(w.rigOptions(seed, traced))
	if err != nil {
		return nil, 0, fmt.Errorf("build rig: %w", err)
	}
	return rig, time.Since(start), nil
}

// simulated gathers a run's simulated-time outputs and layer counters.
func simulated(bs *benchSystem, res tpcb.MixedResult, d counters) simOutput {
	var o simOutput
	var resp []int64
	for _, c := range bs.clients {
		o.Txns += int64(len(c.committed))
		o.Attempts += c.attempts
		o.Retries += c.retries
		for _, d := range c.resp {
			resp = append(resp, int64(d))
			o.RespSumNS += int64(d)
		}
	}
	slices.Sort(resp)
	o.RespP99NS = percentile(resp, 0.99)
	o.ElapsedNS, o.WriterNS = int64(res.Elapsed), int64(res.WriterElapsed)
	o.TPS = res.WriterTPS
	o.Dispatches = res.Dispatches
	o.IdleSteps, o.IdleNS, o.DrainNS = bs.idleSteps, int64(bs.idleTime), int64(bs.drainTime)
	var scan []int64
	for _, s := range bs.scans {
		o.Scans += int64(len(s.rows))
		for i, n := range s.rows {
			o.ScanRows += n
			o.ScanSumNS += int64(s.dur[i])
			scan = append(scan, int64(s.dur[i]))
		}
	}
	slices.Sort(scan)
	o.ScanP50NS = percentile(scan, 0.50)
	o.ScanRetries = res.ScanRetries
	o.Layers = d
	return o
}

// verify is the output-correctness gate of one run.
func verify(w workload, cfg tpcb.Config, bs *benchSystem, rig *tpcb.Rig, res tpcb.MixedResult, o simOutput) error {
	if len(bs.clients) != w.mpl {
		return fmt.Errorf("%d clients ran, want %d", len(bs.clients), w.mpl)
	}
	// Each client must have committed exactly its own deterministic stream,
	// in order; the union of the streams is what the database must hold.
	var want []tpcb.Txn
	for c, cl := range bs.clients {
		if cl.err != nil {
			return cl.err
		}
		gen := tpcb.NewClientGenerator(cfg, c)
		quota := w.txns / w.mpl
		if c < w.txns%w.mpl {
			quota++
		}
		if len(cl.committed) != quota {
			return fmt.Errorf("client %d committed %d txns, want %d", c, len(cl.committed), quota)
		}
		for i := 0; i < quota; i++ {
			t := gen.Next()
			if cl.committed[i] != t {
				return fmt.Errorf("client %d txn %d committed %+v, want %+v", c, i, cl.committed[i], t)
			}
			want = append(want, t)
		}
	}
	if res.Retries != o.Retries {
		return fmt.Errorf("the run loop counts %d deadlock retries, clients saw %d", res.Retries, o.Retries)
	}
	if res.Txns != w.txns {
		return fmt.Errorf("the run loop reports %d txns, want %d", res.Txns, w.txns)
	}
	if err := tpcb.VerifyState(rig.FS, want, nil); err != nil {
		return err
	}
	if w.scanners > 0 {
		if res.ScanMode != tpcb.ScanSnapshot {
			return fmt.Errorf("scans ran in mode %q, want snapshot", res.ScanMode)
		}
		scans := w.scanners * w.scansEach
		if res.Scans != scans || res.ScanRows != int64(scans)*cfg.Accounts {
			return fmt.Errorf("%d scans saw %d rows, want %d × %d accounts", res.Scans, res.ScanRows, scans, cfg.Accounts)
		}
		for _, s := range bs.scans {
			for _, n := range s.rows {
				if n != cfg.Accounts {
					return fmt.Errorf("a scan saw %d rows, want %d", n, cfg.Accounts)
				}
			}
		}
	}
	return nil
}

// writeTrace writes the traced run's Chrome trace-event file, gzipped: the
// benchmark's own spans (category "bench") beside every layer's.
func writeTrace(rig *tpcb.Rig, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := rig.Tracer.WriteChrome(zw); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the nearest-rank p-quantile of sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of f over reps.
func median(reps []rep, f func(rep) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return medianOf(v)
}

// medianOf returns the median of v, reordering v.
func medianOf(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
