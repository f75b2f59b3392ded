package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/pagestore"
	"repro/internal/sim"
	"repro/internal/tpcb"
)

const (
	microOps        = 1 << 14 // operations per timed round
	microRounds     = 5       // rounds per microbenchmark; the median is reported
	accountsPerPage = 30      // 100-byte records in a 4 KB leaf, for page ids
)

// runMicro times single layers through their public calls, on inputs taken
// from the workload's own transaction stream (client 0 of seed), and
// returns the median ns per operation of each.
func runMicro(w workload, seed uint64) (map[string]float64, error) {
	cfg := w.config(seed)
	gen := tpcb.NewClientGenerator(cfg, 0)
	txns := make([]tpcb.Txn, microOps)
	for i := range txns {
		txns[i] = gen.Next()
	}
	out := map[string]float64{}

	// btree: the workload's account relation in memory, so only the tree's
	// own search and page encode/decode are timed.
	tree, err := btree.Create(pagestore.NewMemStore(4096))
	if err != nil {
		return nil, err
	}
	for id := int64(0); id < cfg.Accounts; id++ {
		if err := tree.Put(tpcb.Key(id), tpcb.BalanceRecord(id, 0)); err != nil {
			return nil, fmt.Errorf("btree load: %w", err)
		}
	}
	keys := make([][]byte, len(txns))
	for i, t := range txns {
		keys[i] = tpcb.Key(t.Account)
	}
	var opErr error
	out["micro.btree.get_ns"] = timeOps(func(i int) {
		if _, err := tree.Get(keys[i]); err != nil {
			opErr = err
		}
	})
	update := func(i int) {
		rec, err := tree.Get(keys[i])
		if err != nil {
			opErr = err
			return
		}
		rec2 := append([]byte(nil), rec...)
		tpcb.SetBalance(rec2, tpcb.Balance(rec2)+txns[i].Amount)
		if err := tree.Put(keys[i], rec2); err != nil {
			opErr = err
		}
	}
	out["micro.btree.update_ns"] = timeOps(update)
	out["micro.btree.update_allocs"] = allocsPerOp(update)

	// lock: one TPC-B txn's page locks (account, teller, branch), each read
	// then upgraded to write, released at commit. acquire_ns includes the
	// release at commit; upgrade_ns is the extra cost of the write upgrade.
	mgr := lock.NewManager()
	objs := func(t tpcb.Txn) [3]lock.Object {
		return [3]lock.Object{{File: 1, Block: t.Account / accountsPerPage}, {File: 2, Block: t.Teller / accountsPerPage}, {File: 3, Block: t.Branch / accountsPerPage}}
	}
	lockTxn := func(i int, upgrade bool) {
		id := lock.TxnID(i + 1)
		for _, o := range objs(txns[i]) {
			if err := mgr.Lock(id, o, lock.Read); err != nil {
				opErr = err
			}
			if upgrade {
				if err := mgr.Lock(id, o, lock.Write); err != nil {
					opErr = err
				}
			}
		}
		mgr.ReleaseAll(id)
	}
	acquire := timeOps(func(i int) { lockTxn(i, false) }) / 3
	out["micro.lock.acquire_ns"] = acquire
	out["micro.lock.upgrade_ns"] = timeOps(func(i int) { lockTxn(i, true) })/3 - acquire

	// buffer: the hit path of Get+Release on a warm pool.
	pool := buffer.New(1024, 4096, nil)
	ids := make([]buffer.BlockID, len(txns))
	for i, t := range txns {
		ids[i] = buffer.BlockID{File: 1, Block: (t.Account / accountsPerPage) % 1024}
	}
	for b := int64(0); b < 1024; b++ {
		buf, err := pool.Get(buffer.BlockID{File: 1, Block: b}, nil)
		if err != nil {
			return nil, err
		}
		pool.Release(buf)
	}
	out["micro.buffer.hit_ns"] = timeOps(func(i int) {
		buf, err := pool.Get(ids[i], nil)
		if err != nil {
			opErr = err
			return
		}
		pool.Release(buf)
	})

	// disk: the model's charge and copy for single-block reads and writes
	// at the account pages' addresses, alternating.
	dev := disk.New(tpcb.DiskModelFor(cfg, w.txns), sim.NewClock())
	block := make([]byte, dev.BlockSize())
	out["micro.disk.io_ns"] = timeOps(func(i int) {
		addr := (txns[i].Account / accountsPerPage) % dev.NumBlocks()
		var err error
		if i%2 == 0 {
			err = dev.Write(addr, block)
		} else {
			err = dev.Read(addr, block)
		}
		if err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return nil, fmt.Errorf("microbenchmark: %w", opErr)
	}
	return out, nil
}

// timeOps runs op over the input indexes microRounds times and returns the
// median ns per call.
func timeOps(op func(i int)) float64 {
	ns := make([]float64, microRounds)
	for r := range ns {
		start := time.Now()
		for i := 0; i < microOps; i++ {
			op(i)
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / microOps
	}
	return medianOf(ns)
}

// allocsPerOp returns the heap allocations per call of op over one round.
func allocsPerOp(op func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < microOps; i++ {
		op(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / microOps
}
