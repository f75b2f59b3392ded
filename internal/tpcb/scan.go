package tpcb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/libtp"
	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ScanMode selects how a long-running reader executes against the OLTP
// stream.
type ScanMode string

const (
	// ScanNone runs no scans (the plain TPC-B baseline).
	ScanNone ScanMode = "none"
	// ScanLocking runs each scan as an ordinary two-phase-locking
	// transaction: the scan read-locks every account page it touches and
	// holds the locks to the end of the scan, serializing against writers.
	ScanLocking ScanMode = "locking"
	// ScanSnapshot runs each scan as a read-only multiversion snapshot:
	// no page locks at all, reading the version horizon pinned at scan
	// start from the no-overwrite log (kernel) or the WAL's before-images
	// (user level).
	ScanSnapshot ScanMode = "snapshot"
)

// Scanner runs full key-order scans of the account relation.
type Scanner interface {
	// Scan walks every account record once and returns the row count.
	Scan() (int64, error)
}

// ScanCapable is implemented by systems that support transactional scans.
// NewScanner returns the scanner and the mode it actually runs in: a system
// without retained old versions (user-level on FFS, which overwrites in
// place and whose snapshot horizon the log manager cannot serve once pages
// are gone) degrades ScanSnapshot to ScanLocking.
type ScanCapable interface {
	NewScanner(mode ScanMode) (Scanner, ScanMode, error)
}

// MixedResult reports a mixed OLTP + scan run. Result covers the whole run
// (writer transactions over total elapsed, scans excluded from TPS);
// WriterElapsed/WriterTPS measure the writer side alone — the fair basis
// for "did the scans slow the writers down", since trailing scans may run
// past the last commit.
type MixedResult struct {
	Result
	ScanMode      ScanMode
	Scanners      int
	Scans         int
	ScanRows      int64
	ScanRetries   int64 // deadlock-victim scan retries (locking mode only)
	WriterElapsed time.Duration
	WriterTPS     float64
}

func (r MixedResult) String() string {
	return r.Result.String() + fmt.Sprintf(" + %d %s scans (%d rows, %d retries); writers alone: %.2f TPS",
		r.Scans, r.ScanMode, r.ScanRows, r.ScanRetries, r.WriterTPS)
}

// RunMixedMPL executes n writer transactions over mpl clients while
// `scanners` concurrent readers each perform `scansEach` full account scans
// in the given mode. See RunMixedMPLTraced.
func RunMixedMPL(sys System, clock *sim.Clock, cfg Config, n, mpl, scanners, scansEach int, mode ScanMode, idle func() error) (MixedResult, error) {
	return RunMixedMPLTraced(sys, clock, cfg, n, mpl, scanners, scansEach, mode, idle, nil)
}

// RunMixedMPLTraced is the mixed OLTP + long-scan driver: the writer side
// is exactly RunBenchmarkMPLTraced (client-c procs, deterministic per-client
// streams, deadlock-victim retries), plus scan-s procs interleaving full
// key-order account scans. Locking scans that lose deadlock detection abort
// and retry like writers; snapshot scans cannot deadlock. Writer completion
// times are recorded so the result separates writer-only throughput from
// total elapsed.
func RunMixedMPLTraced(sys System, clock *sim.Clock, cfg Config, n, mpl, scanners, scansEach int, mode ScanMode, idle func() error, tr *trace.Tracer) (MixedResult, error) {
	if mpl < 1 {
		mpl = 1
	}
	if mode == ScanNone || scansEach <= 0 {
		scanners = 0
	}
	workers := make([]Worker, mpl)
	if mc, ok := sys.(MultiClient); ok {
		for c := range workers {
			w, err := mc.NewWorker()
			if err != nil {
				return MixedResult{}, err
			}
			workers[c] = w
		}
	} else if mpl == 1 {
		workers[0] = sys
	} else {
		return MixedResult{}, fmt.Errorf("tpcb: %s does not support MPL %d (no MultiClient)", sys.Name(), mpl)
	}
	scans := make([]Scanner, scanners)
	effMode := mode
	if scanners > 0 {
		sc, ok := sys.(ScanCapable)
		if !ok {
			return MixedResult{}, fmt.Errorf("tpcb: %s does not support scans", sys.Name())
		}
		for i := range scans {
			var err error
			scans[i], effMode, err = sc.NewScanner(mode)
			if err != nil {
				return MixedResult{}, err
			}
		}
	}

	sched := sim.NewScheduler(clock)
	start := clock.Now()
	errs := make([]error, mpl+scanners)
	retries := make([]int64, mpl)
	writerEnd := make([]time.Duration, mpl)
	for c := 0; c < mpl; c++ {
		c := c
		gen := NewClientGenerator(cfg, c)
		quota := n / mpl
		if c < n%mpl {
			quota++
		}
		name := fmt.Sprintf("client-%d", c)
		sched.Spawn(name, func() {
			tr.ProcStart(name)
			defer tr.ProcEnd()
			defer func() { writerEnd[c] = clock.Now() }()
			for i := 0; i < quota; i++ {
				clock.Yield()
				t := gen.Next()
				for {
					err := workers[c].Run(t)
					if err == nil {
						break
					}
					if errors.Is(err, lock.ErrDeadlock) {
						retries[c]++
						clock.Yield()
						continue
					}
					errs[c] = fmt.Errorf("tpcb: client %d txn %d on %s: %w", c, i, sys.Name(), err)
					return
				}
				if idle != nil {
					if err := idle(); err != nil {
						errs[c] = fmt.Errorf("tpcb: idle cleaning on %s client %d: %w", sys.Name(), c, err)
						return
					}
				}
			}
		})
	}
	scanRows := make([]int64, scanners)
	scanRetries := make([]int64, scanners)
	scansDone := make([]int, scanners)
	for s := 0; s < scanners; s++ {
		s := s
		name := fmt.Sprintf("scan-%d", s)
		sched.Spawn(name, func() {
			tr.ProcStart(name)
			defer tr.ProcEnd()
			for k := 0; k < scansEach; k++ {
				clock.Yield()
				for {
					rows, err := scans[s].Scan()
					if err == nil {
						scanRows[s] += rows
						scansDone[s]++
						break
					}
					if errors.Is(err, lock.ErrDeadlock) {
						// Locking scans are deadlock-prone by design: the
						// victim aborts, drops its read locks, and restarts
						// the whole scan.
						scanRetries[s]++
						clock.Yield()
						continue
					}
					errs[mpl+s] = fmt.Errorf("tpcb: scan %d on %s: %w", s, sys.Name(), err)
					return
				}
			}
		})
	}
	sched.Run()
	dispatches := sched.Dispatches()
	tr.Metrics().Set("sched.dispatches", dispatches)
	for _, err := range errs {
		if err != nil {
			return MixedResult{}, err
		}
	}
	tr.ProcStart("drain")
	if err := sys.Drain(); err != nil {
		return MixedResult{}, err
	}
	tr.ProcEnd()
	elapsed := clock.Now() - start
	res := MixedResult{
		Result:   Result{System: sys.Name(), Txns: n, MPL: mpl, Dispatches: dispatches, Elapsed: elapsed},
		ScanMode: effMode,
		Scanners: scanners,
	}
	if scanners == 0 {
		res.ScanMode = ScanNone
	}
	for _, r := range retries {
		res.Retries += r
	}
	var wEnd time.Duration
	for _, e := range writerEnd {
		if e > wEnd {
			wEnd = e
		}
	}
	res.WriterElapsed = wEnd - start
	for s := 0; s < scanners; s++ {
		res.Scans += scansDone[s]
		res.ScanRows += scanRows[s]
		res.ScanRetries += scanRetries[s]
	}
	if elapsed > 0 {
		res.TPS = float64(n) / elapsed.Seconds()
	}
	if res.WriterElapsed > 0 {
		res.WriterTPS = float64(n) / res.WriterElapsed.Seconds()
	}
	if tr.Enabled() && scanners > 0 {
		tr.Metrics().Set("scan.count", int64(res.Scans))
		tr.Metrics().Set("scan.rows", res.ScanRows)
		tr.Metrics().Set("scan.retries", res.ScanRetries)
	}
	return res, nil
}

// RunMixedOn runs the mixed driver on a rig (idle hook and tracer wired).
func (r *Rig) RunMixed(cfg Config, n, mpl, scanners, scansEach int, mode ScanMode) (MixedResult, error) {
	return RunMixedMPLTraced(r.Sys, r.Clock, cfg, n, mpl, scanners, scansEach, mode, r.Idle, r.Tracer)
}

// --- user-level scanners ---

// userLockScanner scans under two-phase locking: a plain read-only
// transaction per shard, taken in shard order, whose read locks accumulate
// over every account page until the whole scan commits (the pre-snapshot
// behavior a long reader imposes on writers).
type userLockScanner struct {
	s *UserSystem
}

func (sc *userLockScanner) Scan() (int64, error) {
	txns := make([]*libtp.Txn, 0, len(sc.s.shards))
	var n int64
	for _, sh := range sc.s.shards {
		txn := sh.env.Begin()
		txns = append(txns, txn)
		c, err := countAccounts(txn.Store(sh.acc))
		if err != nil {
			for _, tx := range txns {
				tx.Abort()
			}
			return 0, err
		}
		n += c
	}
	var err error
	for _, tx := range txns {
		if err != nil {
			tx.Abort()
			continue
		}
		err = tx.Commit()
	}
	return n, err
}

// userSnapScanner scans each shard through a pinned snapshot: zero
// lock-manager calls, pages rewound to the shard's commit horizon with WAL
// before-images.
type userSnapScanner struct {
	s *UserSystem
}

func (sc *userSnapScanner) Scan() (int64, error) {
	var n int64
	for _, sh := range sc.s.shards {
		snap := sh.env.BeginSnapshot()
		c, err := countAccounts(snap.Store(sh.acc))
		snap.Close()
		n += c
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// NewScanner implements ScanCapable. On FFS, snapshot scans degrade to
// locking: FFS overwrites pages in place, so there is no no-overwrite log
// to retain old versions against — see DESIGN.md §12.
func (s *UserSystem) NewScanner(mode ScanMode) (Scanner, ScanMode, error) {
	switch mode {
	case ScanLocking:
		return &userLockScanner{s: s}, ScanLocking, nil
	case ScanSnapshot:
		if s.shards[0].env.FS().Name() != "lfs" {
			return &userLockScanner{s: s}, ScanLocking, nil
		}
		return &userSnapScanner{s: s}, ScanSnapshot, nil
	}
	return nil, ScanNone, fmt.Errorf("tpcb: unknown scan mode %q", mode)
}

// --- kernel scanners ---

// kernelLockScanner is a read-only kernel transaction on its own process
// (restriction 3: transactions may not span processes): every page read
// acquires a kernel read lock held to commit.
type kernelLockScanner struct {
	s    *EmbeddedSystem
	proc *core.Process
}

func (sc *kernelLockScanner) Scan() (int64, error) {
	if err := sc.proc.TxnBegin(); err != nil {
		return 0, err
	}
	n, err := countAccounts(core.NewStore(sc.proc, sc.s.acc))
	if err != nil {
		sc.proc.TxnAbort()
		return 0, err
	}
	return n, sc.proc.TxnCommit()
}

// kernelSnapScanner scans through a kernel snapshot: superseded page
// versions are read straight from their retained addresses in the
// no-overwrite log.
type kernelSnapScanner struct {
	s *EmbeddedSystem
}

func (sc *kernelSnapScanner) Scan() (int64, error) {
	snap := sc.s.m.BeginSnapshot()
	defer snap.Close()
	return countAccounts(snap.Store(sc.s.acc))
}

// NewScanner implements ScanCapable.
func (s *EmbeddedSystem) NewScanner(mode ScanMode) (Scanner, ScanMode, error) {
	switch mode {
	case ScanLocking:
		return &kernelLockScanner{s: s, proc: s.m.NewProcess()}, ScanLocking, nil
	case ScanSnapshot:
		return &kernelSnapScanner{s: s}, ScanSnapshot, nil
	}
	return nil, ScanNone, fmt.Errorf("tpcb: unknown scan mode %q", mode)
}
