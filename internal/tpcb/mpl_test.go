package tpcb

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/vfs"
)

// mplKinds are the three measured configurations of Figure 4.
var mplKinds = []string{"user-ffs", "user-lfs", "kernel-lfs"}

func buildSmallGC(t *testing.T, kind string, groupCommit int) *Rig {
	t.Helper()
	rig, err := BuildRig(RigOptions{Kind: kind, Config: smallCfg(), ExpectedTxns: 500, GroupCommit: groupCommit})
	if err != nil {
		t.Fatalf("BuildRig(%s): %v", kind, err)
	}
	// Strict clock: a negative advance anywhere in the scheduled run is a
	// scheduler bug and must fail loudly.
	rig.Clock.SetStrict(true)
	return rig
}

// TestClientSeedStreams: client 0 replays the base stream; other clients
// get distinct deterministic streams.
func TestClientSeedStreams(t *testing.T) {
	cfg := smallCfg()
	if ClientSeed(cfg.Seed, 0) != cfg.Seed {
		t.Fatal("client 0 must keep the base seed")
	}
	g0, gBase := NewClientGenerator(cfg, 0), NewGenerator(cfg)
	for i := 0; i < 50; i++ {
		if g0.Next() != gBase.Next() {
			t.Fatal("client 0 stream diverged from the base stream")
		}
	}
	seen := map[uint64]bool{cfg.Seed: true}
	for c := 1; c < 32; c++ {
		s := ClientSeed(cfg.Seed, c)
		if seen[s] {
			t.Fatalf("client %d seed collides", c)
		}
		seen[s] = true
	}
	a, b := NewClientGenerator(cfg, 3), NewClientGenerator(cfg, 3)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatal("per-client stream must be deterministic")
		}
	}
}

// TestMPL1Conformance: MPL=1 through the scheduler reproduces the legacy
// single-client driver to the exact simulated nanosecond, for all three
// systems — the guarantee that every paper figure is unchanged by the
// discrete-event refactor.
func TestMPL1Conformance(t *testing.T) {
	const txns = 300
	for _, kind := range mplKinds {
		t.Run(kind, func(t *testing.T) {
			seedRig := buildSmall(t, kind)
			seedRes, err := seedRig.Run(smallCfg(), txns)
			if err != nil {
				t.Fatalf("seed driver: %v", err)
			}
			mplRig := buildSmallGC(t, kind, 1)
			mplRes, err := mplRig.RunMPL(smallCfg(), txns, 1)
			if err != nil {
				t.Fatalf("MPL driver: %v", err)
			}
			if seedRes.Elapsed != mplRes.Elapsed {
				t.Fatalf("MPL=1 elapsed %v (%.4f TPS) != seed-path elapsed %v (%.4f TPS)",
					mplRes.Elapsed, mplRes.TPS, seedRes.Elapsed, seedRes.TPS)
			}
			sd, md := seedRig.Dev.Stats(), mplRig.Dev.Stats()
			if sd != md {
				t.Fatalf("disk stats diverged:\nseed %+v\nmpl  %+v", sd, md)
			}
			if md.QueueTime != 0 {
				t.Fatalf("MPL=1 must never queue, got %v", md.QueueTime)
			}
		})
	}
}

// TestMPL1ConformanceGroupCommit: the degenerate case must also hold with
// group commit enabled (the deferred-force path of the seed design).
func TestMPL1ConformanceGroupCommit(t *testing.T) {
	const txns = 300
	for _, kind := range mplKinds {
		t.Run(kind, func(t *testing.T) {
			seedRig := buildSmallGC(t, kind, 8)
			seedRig.Clock.SetStrict(false)
			seedRes, err := seedRig.Run(smallCfg(), txns)
			if err != nil {
				t.Fatalf("seed driver: %v", err)
			}
			mplRig := buildSmallGC(t, kind, 8)
			mplRes, err := mplRig.RunMPL(smallCfg(), txns, 1)
			if err != nil {
				t.Fatalf("MPL driver: %v", err)
			}
			if seedRes.Elapsed != mplRes.Elapsed {
				t.Fatalf("MPL=1 elapsed %v != seed-path elapsed %v", mplRes.Elapsed, seedRes.Elapsed)
			}
		})
	}
}

// TestMPLDeterminism: two identical MPL=8 runs are byte-for-byte identical —
// same elapsed nanoseconds, same retries, same lock and disk counters.
func TestMPLDeterminism(t *testing.T) {
	const txns, mpl = 400, 8
	for _, kind := range mplKinds {
		t.Run(kind, func(t *testing.T) {
			type snapshot struct {
				res  Result
				lock interface{}
				disk interface{}
			}
			run := func() snapshot {
				rig := buildSmallGC(t, kind, 4)
				res, err := rig.RunMPL(smallCfg(), txns, mpl)
				if err != nil {
					t.Fatalf("RunMPL: %v", err)
				}
				return snapshot{res: res, lock: rig.LockStats(), disk: rig.Dev.Stats()}
			}
			a, b := run(), run()
			if a.res != b.res {
				t.Fatalf("results differ:\n%+v\n%+v", a.res, b.res)
			}
			if a.lock != b.lock {
				t.Fatalf("lock stats differ:\n%+v\n%+v", a.lock, b.lock)
			}
			if a.disk != b.disk {
				t.Fatalf("disk stats differ:\n%+v\n%+v", a.disk, b.disk)
			}
		})
	}
}

// TestMPLCleanerDeterminism: two identical MPL=8 runs with the idle
// background cleaner enabled must stay byte-for-byte identical — the
// cleaner's victim selection, relocation writes, and idle-window scheduling
// all have to be deterministic functions of the seed, on top of everything
// TestMPLDeterminism already pins. The disk is sized so the log wraps and
// cleaning genuinely runs.
func TestMPLCleanerDeterminism(t *testing.T) {
	const txns, mpl = 600, 8
	for _, kind := range []string{"user-lfs", "kernel-lfs"} {
		t.Run(kind, func(t *testing.T) {
			type snapshot struct {
				res  Result
				lock lock.Stats
				lfs  interface{}
				disk interface{}
			}
			run := func() snapshot {
				// The shrunken disk and raised trigger make the log wrap
				// within 600 transactions on both rig kinds, so the run
				// exercises real cleaning, not an idle no-op.
				rig, err := BuildRig(RigOptions{
					Kind:             kind,
					Config:           smallCfg(),
					ExpectedTxns:     txns,
					GroupCommit:      4,
					CleanerMode:      "idle",
					CleanBatch:       4,
					DiskScale:        0.7,
					IdleCleanTrigger: 10,
				})
				if err != nil {
					t.Fatalf("BuildRig(%s): %v", kind, err)
				}
				rig.Clock.SetStrict(true)
				res, err := rig.RunMPL(smallCfg(), txns, mpl)
				if err != nil {
					t.Fatalf("RunMPL: %v", err)
				}
				if cl := rig.LFS.Stats().Cleaner; cl.Runs == 0 || cl.SegmentsCleaned == 0 {
					t.Fatalf("background cleaner never ran (%+v); the test is not exercising cleaning", cl)
				}
				return snapshot{res: res, lock: rig.LockStats(), lfs: rig.LFS.Stats(), disk: rig.Dev.Stats()}
			}
			a, b := run(), run()
			if a.res != b.res {
				t.Fatalf("results differ:\n%+v\n%+v", a.res, b.res)
			}
			if a.lock != b.lock {
				t.Fatalf("lock stats differ:\n%+v\n%+v", a.lock, b.lock)
			}
			if !reflect.DeepEqual(a.lfs, b.lfs) {
				t.Fatalf("lfs stats differ:\n%+v\n%+v", a.lfs, b.lfs)
			}
			if !reflect.DeepEqual(a.disk, b.disk) {
				t.Fatalf("disk stats differ:\n%+v\n%+v", a.disk, b.disk)
			}
		})
	}
}

// TestMPLConsistency: at MPL=4 every client's transactions apply exactly
// once (deadlock victims retry until they succeed), so the TPC-B balance
// invariants hold over the union of all client streams.
func TestMPLConsistency(t *testing.T) {
	const txns, mpl = 400, 4
	for _, kind := range mplKinds {
		t.Run(kind, func(t *testing.T) {
			rig := buildSmallGC(t, kind, 4)
			res, err := rig.RunMPL(smallCfg(), txns, mpl)
			if err != nil {
				t.Fatalf("RunMPL: %v", err)
			}
			checkConsistency(t, rig, clientStreams(smallCfg(), txns, mpl))
			if res.Txns != txns {
				t.Fatalf("res.Txns = %d", res.Txns)
			}
		})
	}
}

// clientStreams returns the union of the deterministic client streams a
// RunMPL of txns transactions at the given MPL executes.
func clientStreams(cfg Config, txns, mpl int) []Txn {
	var all []Txn
	for c := 0; c < mpl; c++ {
		gen := NewClientGenerator(cfg, c)
		quota := txns / mpl
		if c < txns%mpl {
			quota++
		}
		for i := 0; i < quota; i++ {
			all = append(all, gen.Next())
		}
	}
	return all
}

// TestMPLWriteIntentNoUpgrades: TPC-B reads every page it updates with
// write intent, so at MPL 16 no lock is ever upgraded and no request
// deadlocks, on every system and on a partitioned rig whose transactions
// span shards. The final state must match the committed streams.
func TestMPLWriteIntentNoUpgrades(t *testing.T) {
	const txns, mpl = 400, 16
	cfg := smallCfg()
	for _, tc := range []struct {
		kind    string
		devices int
	}{{"user-lfs", 1}, {"user-ffs", 1}, {"kernel-lfs", 1}, {"user-lfs", 3}} {
		t.Run(fmt.Sprintf("%s/%ddev", tc.kind, tc.devices), func(t *testing.T) {
			opts := RigOptions{Kind: tc.kind, Config: cfg, ExpectedTxns: txns, GroupCommit: 8}
			if tc.devices > 1 {
				opts.Devices, opts.Layout = tc.devices, "partition"
			}
			rig, err := BuildRig(opts)
			if err != nil {
				t.Fatal(err)
			}
			rig.Clock.SetStrict(true)
			res, err := rig.RunMPL(cfg, txns, mpl)
			if err != nil {
				t.Fatalf("RunMPL: %v", err)
			}
			if ls := rig.LockStats(); ls.Upgrades != 0 || ls.Deadlocks != 0 || res.Retries != 0 {
				t.Fatalf("upgrades %d, deadlocks %d, retries %d; want all 0", ls.Upgrades, ls.Deadlocks, res.Retries)
			}
			if ls := rig.LockStats(); ls.Waited == 0 {
				t.Fatal("no lock waits: the run does not contend")
			}
			all := clientStreams(cfg, txns, mpl)
			if tc.devices == 1 {
				err = VerifyState(rig.FS, all, nil)
			} else {
				fss := make([]vfs.FileSystem, len(rig.Shards))
				for i, env := range rig.Shards {
					fss[i] = env.FS()
				}
				err = VerifyShardedState(fss, rig.Part, all, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMPLBlockedTimeAccrues: with several clients contending, some lock
// waits must suspend in simulated time.
func TestMPLBlockedTimeAccrues(t *testing.T) {
	rig := buildSmallGC(t, "user-lfs", 4)
	if _, err := rig.RunMPL(smallCfg(), 400, 8); err != nil {
		t.Fatalf("RunMPL: %v", err)
	}
	ls := rig.LockStats()
	if ls.Waited == 0 {
		t.Skip("no lock waits at this scale; nothing to measure")
	}
	if ls.BlockedTime <= 0 {
		t.Fatalf("Waited=%d but BlockedTime=%v", ls.Waited, ls.BlockedTime)
	}
}

// TestMPLGroupCommitBatches: at MPL=8, group commit must absorb commits
// into shared forces — strictly fewer log forces than the force-per-commit
// configuration — and convert that into a throughput gain, on an LFS-based
// system (committers pre-commit: locks release at the commit record, so
// batching does not lengthen lock hold times).
func TestMPLGroupCommitBatches(t *testing.T) {
	const txns, mpl = 400, 8
	forces := func(groupCommit int) (int64, time.Duration) {
		rig := buildSmallGC(t, "user-lfs", groupCommit)
		res, err := rig.RunMPL(smallCfg(), txns, mpl)
		if err != nil {
			t.Fatalf("RunMPL(gc=%d): %v", groupCommit, err)
		}
		return rig.Env.LogStats().Forces, res.Elapsed
	}
	fNo, eNo := forces(1)
	fYes, eYes := forces(8)
	if fYes >= fNo {
		t.Fatalf("group commit did not batch: %d forces with gc=8 vs %d with gc=1", fYes, fNo)
	}
	if eYes >= eNo {
		t.Fatalf("group commit did not pay: elapsed %v with gc=8 vs %v with gc=1 (%d vs %d forces)",
			eYes, eNo, fYes, fNo)
	}
}

// TestMPLKernelGroupCommitBatches: the embedded manager's no-steal design
// holds a pending transaction's locks until the batch flush, and a
// conflicting lock request flushes the batch early (§4.4). Under TPC-B's
// hot branch page the next client conflicts almost immediately, so kernel
// group commit cannot batch much — but it must never flush more often than
// force-per-commit, and must not slow the run down.
func TestMPLKernelGroupCommitBatches(t *testing.T) {
	const txns, mpl = 400, 8
	flushes := func(groupCommit int) (int64, time.Duration) {
		rig := buildSmallGC(t, "kernel-lfs", groupCommit)
		res, err := rig.RunMPL(smallCfg(), txns, mpl)
		if err != nil {
			t.Fatalf("RunMPL(gc=%d): %v", groupCommit, err)
		}
		return rig.Core.Stats().CommitFlush, res.Elapsed
	}
	fNo, eNo := flushes(1)
	fYes, eYes := flushes(8)
	if fYes > fNo {
		t.Fatalf("kernel group commit flushed more often than force-per-commit: %d vs %d", fYes, fNo)
	}
	// Conflict-triggered flushes must not make the batched run slower than
	// force-per-commit by more than scheduling noise.
	if eYes > eNo+eNo/10 {
		t.Fatalf("kernel group commit slowed the run: %v with gc=8 vs %v with gc=1", eYes, eNo)
	}
}
