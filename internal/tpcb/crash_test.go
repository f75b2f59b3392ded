package tpcb

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lfs"
	"repro/internal/sim"
)

// TestEmbeddedCrashStorm repeatedly crashes the embedded transaction system
// at transaction boundaries (remounting the file system from the device and
// rebuilding the transaction manager, with no other recovery step — the
// paper's "single recovery paradigm") and checks that every committed
// transaction survives and the TPC-B invariants hold.
func TestEmbeddedCrashStorm(t *testing.T) {
	cfg := Config{Accounts: 1500, Tellers: 15, Branches: 3, Seed: 99}
	rig, err := BuildRig(RigOptions{Kind: "kernel-lfs", Config: cfg, ExpectedTxns: 400})
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.Sys.(*EmbeddedSystem)
	gen := NewGenerator(cfg)
	rng := sim.NewRNG(7)

	var committed []Txn
	for round := 0; round < 6; round++ {
		// Run a burst of transactions.
		burst := 20 + rng.Intn(40)
		for i := 0; i < burst; i++ {
			tx := gen.Next()
			if err := sys.Run(tx); err != nil {
				t.Fatalf("round %d txn %d: %v", round, i, err)
			}
			committed = append(committed, tx)
		}
		// CRASH: all in-memory state gone; remount from the device.
		fs2, err := lfs.Mount(rig.Dev, rig.Clock, lfs.Options{CacheBlocks: 256})
		if err != nil {
			t.Fatalf("round %d remount: %v", round, err)
		}
		rig.LFS = fs2
		m2 := core.New(fs2, rig.Clock, core.Options{})
		sys = NewEmbeddedSystem(m2, rig.Clock, sim.SpriteCosts())
		if err := sys.Attach(); err != nil {
			t.Fatalf("round %d attach: %v", round, err)
		}
		rig.FS = fs2

		// Verify every committed transaction's effects after this crash.
		verifyState(t, rig, committed)
	}
}

// verifyState checks the TPC-B invariants against the shadow history.
func verifyState(t *testing.T, rig *Rig, committed []Txn) {
	t.Helper()
	if err := VerifyState(rig.FS, committed, nil); err != nil {
		t.Fatal(err)
	}
}
