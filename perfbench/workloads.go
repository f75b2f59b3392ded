package main

import (
	"repro/internal/tpcb"
)

// workload fixes one benchmark configuration. Every workload is a closed
// loop with zero think time: mpl clients, each on its own deterministic
// stream (tpcb.ClientSeed), each issuing its next txn as soon as the last
// one commits. The transaction count is fixed, so the simulated results of
// a seed never depend on the host.
type workload struct {
	name string

	kind        string
	scale       float64
	txns        int
	mpl         int
	groupCommit int
	cleaner     string // "" = the rig default (sync)
	diskScale   float64
	cacheBlocks int

	// seeds is the number of independent runs per round (see runSeeds).
	seeds int

	// Snapshot scanners running repeated full account scans beside the
	// writers (mixed-scan only).
	scanners, scansEach int
}

// workloads are chosen so that each layer does most of the work on one of
// them and none on another; NOTES.md has the sizes against the caches and
// the layer-to-metric table. Every workload must run without a failed
// operation, so two sizings keep clear of program defects NOTES.md
// describes: tpcb-hot's account file stays below the 524 blocks an LFS
// inode maps without a double-indirect block (lfs undercounts a partial
// segment's pointer blocks once one is dirty), and mixed-scan has one
// writer, so no txn is ever aborted (a kernel commit flush writes the dirty
// pages of other running txns, and an abort then cannot undo them).
var workloads = []workload{
	{
		name: "tpcb-hot",
		kind: "user-lfs", scale: 0.015, txns: 2000, mpl: 64, groupCommit: 8, seeds: 8,
	},
	{
		name: "tpcb-large",
		kind: "user-ffs", scale: 0.2, txns: 2000, mpl: 1, groupCommit: 1, seeds: 1,
	},
	{
		name: "mixed-scan",
		kind: "kernel-lfs", scale: 0.05, txns: 2000, mpl: 1, groupCommit: 1,
		cleaner: "idle", diskScale: 6, cacheBlocks: 2048, seeds: 8, scanners: 2, scansEach: 6,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runSeeds returns the seeds of one round: the workload seed, then w.seeds-1
// SplitMix64 steps from it. A single tpcb-hot run's p99 depends on how its
// cleaning stalls fall and moves by about 13% from seed to seed, and a
// longer run would need a bigger log than the default sizing gives (see
// NOTES.md), so tpcb-hot and mixed-scan pool eight independent runs.
func (w workload) runSeeds(seed uint64) []uint64 {
	seeds := []uint64{seed}
	for j := 1; j < w.seeds; j++ {
		z := seed + uint64(j)*0xd1b54a32d192ed03
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		seeds = append(seeds, z^(z>>31))
	}
	return seeds
}

// config returns the database sizing and the seed of one run.
func (w workload) config(seed uint64) tpcb.Config {
	cfg := tpcb.ScaledConfig(w.scale)
	cfg.Seed = seed
	return cfg
}

// rigOptions returns the rig of one run; everything not set here is a
// tpcb.RigOptions default.
func (w workload) rigOptions(seed uint64, traced bool) tpcb.RigOptions {
	return tpcb.RigOptions{
		Kind:         w.kind,
		Config:       w.config(seed),
		GroupCommit:  w.groupCommit,
		ExpectedTxns: w.txns,
		DiskScale:    w.diskScale,
		CacheBlocks:  w.cacheBlocks,
		CleanerMode:  w.cleaner,
		Trace:        traced,
	}
}
