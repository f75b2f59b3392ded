package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ffs"
	"repro/internal/tpcb"
)

// counters is a flat snapshot of every layer's cumulative counters, keyed
// "<layer>.<counter>". Durations are in nanoseconds. Layers a rig does not
// have are absent.
type counters map[string]float64

// layerCounters reads the counters each layer keeps in its own Stats(),
// which exist whether or not the rig is traced.
func layerCounters(rig *tpcb.Rig) counters {
	c := counters{}
	for _, d := range rig.Devs {
		s := d.Stats()
		c["disk.reads"] += float64(s.Reads)
		c["disk.writes"] += float64(s.Writes)
		c["disk.blocks_read"] += float64(s.BlocksRead)
		c["disk.blocks_written"] += float64(s.BlocksWrit)
		c["disk.seeks"] += float64(s.Seeks)
		c["disk.busy_ns"] += float64(s.BusyTime)
		c["disk.queue_ns"] += float64(s.QueueTime)
	}
	ls := rig.LockStats()
	c["lock.acquired"] = float64(ls.Acquired)
	c["lock.waited"] = float64(ls.Waited)
	c["lock.upgrades"] = float64(ls.Upgrades)
	c["lock.deadlocks"] = float64(ls.Deadlocks)
	c["lock.blocked_ns"] = float64(ls.BlockedTime)
	if rig.Env != nil {
		ws := rig.Env.LogStats()
		c["wal.records"] = float64(ws.Records)
		c["wal.bytes"] = float64(ws.BytesLogged)
		c["wal.forces"] = float64(ws.Forces)
		c["wal.group_commits"] = float64(ws.GroupCommits)
		c["wal.checkpoints"] = float64(ws.Checkpoints)
		c["wal.index_writes"] = float64(ws.IndexWrites)
		es := rig.Env.Stats()
		c["libtp.committed"] = float64(es.Committed)
		c["libtp.aborted"] = float64(es.Aborted)
	}
	if rig.LFS != nil {
		fs := rig.LFS.Stats()
		c["lfs.partial_segments"] = float64(fs.PartialSegments)
		c["lfs.blocks_logged"] = float64(fs.BlocksLogged)
		c["lfs.checkpoints"] = float64(fs.Checkpoints)
		c["cleaner.runs"] = float64(fs.Cleaner.Runs)
		c["cleaner.blocks_copied"] = float64(fs.Cleaner.BlocksCopied)
		c["cleaner.blocks_written"] = float64(fs.Cleaner.BlocksWritten)
		c["cleaner.busy_ns"] = float64(fs.Cleaner.BusyTime)
		c["cleaner.overlap_ns"] = float64(fs.Cleaner.OverlapTime)
		c["cleaner.retention_skips"] = float64(fs.Cleaner.RetentionSkips)
		bs := rig.LFS.Pool().Stats()
		c["buffer.fs.hits"], c["buffer.fs.misses"], c["buffer.fs.writebacks"] = float64(bs.Hits), float64(bs.Misses), float64(bs.WriteBacks)
	}
	if f, ok := rig.FS.(*ffs.FS); ok {
		fs := f.Stats()
		c["ffs.syncer_runs"] = float64(fs.SyncerRuns)
		c["ffs.blocks_flushed"] = float64(fs.BlocksFlushed)
		bs := f.Pool().Stats()
		c["buffer.fs.hits"], c["buffer.fs.misses"], c["buffer.fs.writebacks"] = float64(bs.Hits), float64(bs.Misses), float64(bs.WriteBacks)
	}
	if rig.Core != nil {
		cs := rig.Core.Stats()
		c["core.committed"] = float64(cs.Committed)
		c["core.aborted"] = float64(cs.Aborted)
		c["core.commit_flushes"] = float64(cs.CommitFlush)
		c["core.pages_flushed"] = float64(cs.PagesFlushed)
		c["core.bytes_flushed"] = float64(cs.BytesFlushed)
		c["core.versions_recorded"] = float64(cs.VersionsRecorded)
	}
	return c
}

// userPoolCounters reads the user-level buffer pool, whose counters only
// reach the tracer's metrics registry (libtp does not export its pool).
func userPoolCounters(rig *tpcb.Rig) counters {
	c := counters{}
	if rig.Env != nil {
		m := rig.Tracer.Metrics()
		c["buffer.user.hits"] = float64(m.CounterValue("buffer.user.hit"))
		c["buffer.user.misses"] = float64(m.CounterValue("buffer.user.miss"))
		c["buffer.user.writebacks"] = float64(m.CounterValue("buffer.user.writeback"))
	}
	return c
}

// minus returns the counters accumulated since before (the load phase is
// excluded from every per-txn ratio).
func (c counters) minus(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// layerMetrics derives the per-layer metrics of a traced run. Counts are
// per committed txn unless the name says otherwise; a layer the workload
// does not use reports 0. It fails when the time attribution does not
// account for the clients' elapsed time exactly.
func layerMetrics(w workload, rig *tpcb.Rig, d counters, o simOutput) (map[string]float64, error) {
	n := float64(o.Txns)
	elapsed := float64(o.ElapsedNS)
	per := func(k string) float64 { return d[k] / n }
	perMS := func(k string) float64 { return d[k] / 1e6 / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"sim.dispatches_per_txn": float64(o.Dispatches) / n,

		"lock.acquired_per_txn":    per("lock.acquired"),
		"lock.upgrades_per_txn":    per("lock.upgrades"),
		"lock.waits_per_txn":       per("lock.waited"),
		"lock.blocked_ms_per_txn":  perMS("lock.blocked_ns"),
		"lock.attempts_per_commit": float64(o.Attempts) / n,

		"wal.forces_per_txn":       per("wal.forces"),
		"wal.commits_per_force":    ratio(n, d["wal.forces"]),
		"wal.bytes_per_txn":        per("wal.bytes"),
		"wal.index_writes_per_txn": per("wal.index_writes"),

		"lfs.blocks_logged_per_txn":     per("lfs.blocks_logged"),
		"lfs.write_amp":                 ratio(d["lfs.blocks_logged"], d["lfs.blocks_logged"]-d["cleaner.blocks_written"]),
		"lfs.checkpoints":               d["lfs.checkpoints"],
		"cleaner.blocks_copied_per_txn": per("cleaner.blocks_copied"),
		"cleaner.busy_frac":             d["cleaner.busy_ns"] / elapsed,
		// The part of the cleaner's device time no idle window absorbed:
		// all of it for the sync cleaner.
		"cleaner.stall_ms_per_txn": (d["cleaner.busy_ns"] - d["cleaner.overlap_ns"]) / 1e6 / n,
		"cleaner.retention_skips":  d["cleaner.retention_skips"],

		"ffs.blocks_flushed_per_txn": per("ffs.blocks_flushed"),
		"ffs.syncer_runs":            d["ffs.syncer_runs"],

		"buffer.user.hit_ratio":       ratio(d["buffer.user.hits"], d["buffer.user.hits"]+d["buffer.user.misses"]),
		"buffer.fs.hit_ratio":         ratio(d["buffer.fs.hits"], d["buffer.fs.hits"]+d["buffer.fs.misses"]),
		"buffer.misses_per_txn":       (d["buffer.user.misses"] + d["buffer.fs.misses"]) / n,
		"buffer.writebacks_per_txn":   (d["buffer.user.writebacks"] + d["buffer.fs.writebacks"]) / n,
		"disk.reads_per_txn":          per("disk.reads"),
		"disk.writes_per_txn":         per("disk.writes"),
		"disk.blocks_written_per_txn": per("disk.blocks_written"),
		"disk.busy_frac":              d["disk.busy_ns"] / elapsed,
		"disk.queue_ms_per_txn":       perMS("disk.queue_ns"),

		"core.pages_flushed_per_commit": ratio(d["core.pages_flushed"], d["core.committed"]),
		"core.bytes_flushed_per_txn":    per("core.bytes_flushed"),

		"mvcc.versions_recorded_per_commit": ratio(d["core.versions_recorded"], d["core.committed"]),
		"mvcc.scan_ms_p50":                  ms(o.ScanP50NS),
		"scan_rows_per_s":                   ratio(float64(o.ScanRows), float64(o.ScanSumNS)/1e9),
	}

	// Time attribution over the client procs. Each category is a blocking
	// step of the clients' critical path; compute is the unclaimed rest.
	var el, comp, dsk, q, lk, cw, cl, scanLock time.Duration
	clients := 0
	for _, row := range rig.Tracer.Attribution() {
		switch {
		case strings.HasPrefix(row.Proc, "client-"):
			clients++
			el += row.Elapsed
			comp += row.Compute
			dsk += row.Disk
			q += row.Queue
			lk += row.Lock
			cw += row.CommitWait
			cl += row.CleanerStall
		case strings.HasPrefix(row.Proc, "scan-"):
			scanLock += row.Lock
		}
	}
	if clients != w.mpl {
		return nil, fmt.Errorf("attribution has %d client rows, want %d", clients, w.mpl)
	}
	if sum := comp + dsk + q + lk + cw + cl; sum != el {
		return nil, fmt.Errorf("time attribution sums to %v, clients ran %v", sum, el)
	}
	// Clients have zero think time, so their elapsed time is their txns'
	// response times plus the idle-clean steps they ran between txns.
	if want := time.Duration(o.RespSumNS + o.IdleNS); el != want {
		return nil, fmt.Errorf("clients ran %v, response times plus idle cleaning sum to %v", el, want)
	}
	tm := func(v time.Duration) float64 { return float64(v) / 1e6 / n }
	m["time.client_ms_per_txn"] = tm(el)
	m["time.compute_ms_per_txn"] = tm(comp)
	m["time.disk_ms_per_txn"] = tm(dsk)
	m["time.queue_ms_per_txn"] = tm(q)
	m["time.lock_ms_per_txn"] = tm(lk)
	m["time.commit_ms_per_txn"] = tm(cw)
	m["time.cleaner_ms_per_txn"] = tm(cl)
	m["mvcc.scan_lock_ms"] = float64(scanLock) / 1e6
	if scanLock != 0 {
		return nil, fmt.Errorf("snapshot scans were blocked on locks for %v", scanLock)
	}
	return m, nil
}

// layerUnit is the unit of a per-layer metric, from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "host."), strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "frac"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.Contains(name, "bytes"):
		return "B"
	case name == "lfs.write_amp", name == "trace.overhead":
		return "ratio"
	}
	return "count"
}
