// Package core implements the paper's primary contribution: a transaction
// manager embedded in the log-structured file system (Figure 3).
//
// Transaction-protection is an attribute of a file; the interface to
// protected files is identical to unprotected ones (open, close, read,
// write) plus three new "system calls" — TxnBegin, TxnCommit, TxnAbort —
// which have no effect on unprotected files. The kernel's buffer cache
// replaces the user-level buffer pool, the kernel scheduler replaces
// user-level process management, and no explicit logging is performed:
//
//   - LFS's no-overwrite policy guarantees before-images (the old versions
//     of updated pages remain in the log until cleaned), and
//   - flushing all dirty pages at commit guarantees after-images.
//
// Therefore the only machinery added to the "kernel" is lock management and
// transaction management (§4): a lock table keyed by (file, block), a
// per-transaction state with its lock chain, per-inode lists of
// transaction-protected buffers (modelled by buffer holds), and group
// commit.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/detsort"
	"repro/internal/lfs"
	"repro/internal/lock"
	"repro/internal/mvcc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Errors.
var (
	ErrNoTxn     = errors.New("core: no transaction active for this process")
	ErrTxnActive = errors.New("core: process already has an active transaction")
	ErrDeadlock  = lock.ErrDeadlock
)

// checkCost is the per-access cost non-transaction applications pay on a
// transaction-enabled kernel: "a few instructions in accessing buffers to
// determine that transaction locks are unnecessary" (§5.2).
const checkCost = 500 * time.Nanosecond

// Options configures the embedded transaction manager.
type Options struct {
	// Costs is the CPU cost model (default sim.SpriteCosts()).
	Costs sim.CostModel
	// GroupCommit batches the commit-time flush across this many
	// transactions (default 1 = flush at every commit). Locks are held
	// until the batch flushes (strict two-phase commit), exactly the
	// paper's "the process sleeps ... until sufficiently more
	// transactions have committed to justify the write" (§4.4).
	GroupCommit int
	// Granularity selects page or sub-page locking (default Page, the
	// paper's measured configuration; see Granularity).
	Granularity Granularity
	// Tracer, when non-nil, is wired through the lock table and emits
	// transaction and commit-flush events. The file system's own tracer
	// (disk, cleaner, checkpoint events) is attached separately via
	// lfs.FS.SetTracer. A nil tracer costs nothing.
	Tracer *trace.Tracer
}

// Stats counts transaction-manager activity.
type Stats struct {
	Begun        int64
	Committed    int64
	Aborted      int64
	CommitFlush  int64 // commit-time flush operations (group commits count once)
	PagesFlushed int64 // pages written by commit flushes
	BytesFlushed int64 // whole pages × block size (§4.3's commit cost)
	Deadlocks    int64
	// Snapshots counts read-only snapshot transactions (BeginSnapshot);
	// VersionsRecorded counts superseded page addresses captured into the
	// version map while snapshots were pinned.
	Snapshots        int64
	VersionsRecorded int64
}

// Manager is the embedded transaction manager: the paper's additions to the
// file system state (lock table pointer) and the transaction subsystem.
type Manager struct {
	mu     sync.Mutex
	fs     *lfs.FS
	clock  *sim.Clock
	costs  sim.CostModel
	locks  *lock.Manager
	opts   Options
	tracer *trace.Tracer // from Options.Tracer; nil = tracing off
	// Metric handles resolved at construction; nil handles are free.
	ctrCommits, ctrAborts, ctrFlushes *trace.Counter
	histLatency                       *trace.Hist

	nextTxn uint64
	// heldBy refcounts buffer holds across active and pending-commit
	// transactions.
	heldBy map[buffer.BlockID]int
	// pending are committed transactions awaiting the group-commit flush.
	pending []*Txn
	stats   Stats

	// Snapshot (multiversion read) support. commitSeq is the durable commit
	// epoch — one increment per commit flush; snapshots pin it as their
	// horizon. vers maps (page, epoch) to the superseded on-disk address the
	// no-overwrite log still holds; snaps refcounts the pinned horizons.
	// The retention adapter handed to the LFS cleaner reads vers and snaps
	// directly (they carry their own locks) so the cleaner can consult it
	// mid-flush without touching m.mu.
	commitSeq atomic.Int64
	vers      *mvcc.AddrMap
	snaps     *mvcc.Horizons
}

// New attaches a transaction manager to a mounted log-structured file
// system.
func New(fsys *lfs.FS, clock *sim.Clock, opts Options) *Manager {
	if opts.Costs == (sim.CostModel{}) {
		opts.Costs = sim.SpriteCosts()
	}
	if opts.GroupCommit < 1 {
		opts.GroupCommit = 1
	}
	m := &Manager{
		fs:     fsys,
		clock:  clock,
		costs:  opts.Costs,
		locks:  lock.NewManager(),
		opts:   opts,
		tracer: opts.Tracer,
		heldBy: make(map[buffer.BlockID]int),
		vers:   mvcc.NewAddrMap(),
		snaps:  mvcc.NewHorizons(),
	}
	fsys.SetSnapshotRetention(&retention{m: m})
	m.ctrCommits = opts.Tracer.Counter("txn.commits")
	m.ctrAborts = opts.Tracer.Counter("txn.aborts")
	m.ctrFlushes = opts.Tracer.Counter("core.commitFlushes")
	m.histLatency = opts.Tracer.Hist("txn.latency")
	m.locks.SetClock(clock)
	m.locks.SetTracer(opts.Tracer)
	clock.OnStall(m.groupCommitStall)
	return m
}

// FS returns the underlying file system.
func (m *Manager) FS() *lfs.FS { return m.fs }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// LockStats exposes the lock table counters.
func (m *Manager) LockStats() lock.Stats { return m.locks.Stats() }

// Protect turns transaction-protection on for a file — the paper's
// "provided utility".
func (m *Manager) Protect(path string) error {
	return m.fs.SetTxnProtected(path, true)
}

// Unprotect turns transaction-protection off.
func (m *Manager) Unprotect(path string) error {
	return m.fs.SetTxnProtected(path, false)
}

// Process models the per-process state the paper extends with a pointer to
// the transaction state: each process has at most one active transaction
// (implementation restriction 4), and transactions may not span processes
// (restriction 3).
type Process struct {
	m   *Manager
	txn *Txn
}

// NewProcess creates a process context.
func (m *Manager) NewProcess() *Process { return &Process{m: m} }

// Txn is the per-transaction state: status, the lock chain (kept in the
// lock manager, traversable by transaction), the transaction identifier,
// and the pages the transaction dirtied (the per-inode transaction buffer
// lists, §4.1).
type Txn struct {
	id     uint64
	proc   *Process
	pages  map[buffer.BlockID]bool
	status txnStatus
	start  time.Duration // simulated begin time, for the whole-txn trace span
	// undo holds byte-range before-images, used only under SubPage
	// locking (a shared page cannot simply be invalidated on abort).
	undo []undoRange
}

type txnStatus uint8

const (
	txnRunning txnStatus = iota
	txnCommitting
	txnDone
)

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// TxnBegin starts a transaction for the process (the txn_begin system
// call): allocate/initialize the transaction state, assign the next
// transaction identifier, initialize the lock list.
func (p *Process) TxnBegin() error {
	if p.txn != nil && p.txn.status == txnRunning {
		return ErrTxnActive
	}
	m := p.m
	m.mu.Lock()
	defer m.mu.Unlock()
	start := m.clock.Now()
	m.clock.Advance(m.costs.Syscall + m.costs.TxnOp)
	m.nextTxn++
	p.txn = &Txn{
		id:    m.nextTxn,
		proc:  p,
		pages: make(map[buffer.BlockID]bool),
		start: start,
	}
	m.stats.Begun++
	m.tracer.Instant("txn", "txn.begin", trace.AU("txn", p.txn.id))
	return nil
}

// TxnCommit commits the process's transaction (txn_commit): move the dirty
// buffers from the inode's transaction list to its dirty list and, when the
// group-commit batch has filled, flush them to disk and release locks. A
// pending transaction keeps its locks until the flush — the kernel design
// never writes uncommitted pages, so it cannot release early the way the
// user-level log manager can — which is why a conflicting lock request
// (lockObject) or the scheduler's stall hook flushes the batch instead of
// letting requesters queue behind a parked committer. The commit itself
// flushes at once when a request is already queued on one of its locks:
// that request conflicted while the transaction was still running, so
// lockObject could not flush for it, and it would otherwise sleep until
// the stall hook.
func (p *Process) TxnCommit() error {
	if p.txn == nil || p.txn.status != txnRunning {
		return ErrNoTxn
	}
	m := p.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock.Advance(m.costs.Syscall + m.costs.TxnOp)
	t := p.txn
	t.status = txnCommitting
	m.pending = append(m.pending, t)
	if len(m.pending) >= m.opts.GroupCommit || m.locks.HasWaiters(lock.TxnID(t.id)) {
		if err := m.flushPendingLocked(); err != nil {
			return err
		}
	}
	p.txn = nil
	if m.tracer.Enabled() {
		// The span closes when txn_commit returns to the process; a pending
		// transaction's durability arrives later with the batch flush.
		m.tracer.Complete("txn", "txn", t.start, trace.AU("txn", t.id), trace.AS("outcome", "commit"))
		m.histLatency.Observe(m.clock.Now() - t.start)
		m.ctrCommits.Add(1)
	}
	return nil
}

// groupCommitStall is the scheduler's stall hook: every runnable client is
// blocked, and what blocks them is (transitively) a lock held by a pending
// committed transaction. Flush the batch — the discrete-event analogue of
// the group-commit timeout — releasing those locks and waking the waiters.
func (m *Manager) groupCommitStall() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return false
	}
	if err := m.flushPendingLocked(); err != nil {
		// A failed flush made no progress: no locks were released, so no
		// waiter can ever run to receive the error, and reporting progress
		// would turn it into a misleading "scheduler stalled" panic. Fail
		// loudly with the real cause instead.
		panic(fmt.Sprintf("core: group-commit flush from stall hook failed: %v", err))
	}
	return true
}

// flushPendingLocked performs the (group) commit flush: force every pending
// transaction's buffers to the log in one partial-segment stream, then
// release the holds and all pending locks. The holds are released only
// AFTER the flush succeeds: the flush itself gathers held pages explicitly
// (FlushFiles), and any cleaner pass the flush triggers on entry still sees
// the pages as held — so it relocates the on-disk before-images instead of
// stealing the uncommitted contents into the log ahead of the commit record.
//
//simlint:alloc(per-batch flush: group commit amortizes its bookkeeping over the batch, not per page access)
func (m *Manager) flushPendingLocked() error {
	if len(m.pending) == 0 {
		return nil
	}
	span := m.tracer.Begin("txn", "core.commitFlush")
	pool := m.fs.Pool()
	fileSet := make(map[vfs.FileID]bool)
	pageSet := make(map[buffer.BlockID]bool)
	pages := 0
	for _, t := range m.pending {
		pages += len(t.pages)
		for id := range t.pages {
			pageSet[id] = true
			fileSet[id.File] = true
		}
	}
	// With a snapshot pinned, capture the pre-flush disk address of every
	// page this batch rewrites: the flush supersedes those addresses, but
	// the no-overwrite log keeps their contents — exactly the versions a
	// snapshot older than this commit must keep reading.
	capture, err := m.capturePreFlushAddrs(fileSet)
	if err != nil {
		return err
	}
	if err := m.fs.FlushFiles(detsort.Keys(fileSet), pageSet); err != nil {
		return err
	}
	epoch := m.commitSeq.Add(1)
	for _, c := range capture {
		m.vers.Record(mvcc.PageID{File: uint64(c.id.File), Block: c.id.Block}, epoch, c.addr)
		m.stats.VersionsRecorded++
	}
	for _, t := range m.pending {
		for id := range t.pages {
			m.heldBy[id]--
			if m.heldBy[id] == 0 {
				delete(m.heldBy, id)
				if b := pool.Lookup(id); b != nil {
					pool.SetHold(b, false)
				}
			}
		}
	}
	for _, t := range m.pending {
		m.locks.ReleaseAll(lock.TxnID(t.id))
		m.clock.Advance(m.costs.KernelSync())
		t.status = txnDone
		m.stats.Committed++
	}
	m.stats.CommitFlush++
	m.stats.PagesFlushed += int64(pages)
	m.stats.BytesFlushed += int64(pages) * int64(m.fs.BlockSize())
	if m.tracer.Enabled() {
		span.End(trace.AI("txns", int64(len(m.pending))), trace.AI("pages", int64(pages)))
		m.ctrFlushes.Add(1)
	}
	m.pending = m.pending[:0]
	return nil
}

// Flush forces any pending group commit immediately (the timeout arm of
// §4.4's group commit).
func (m *Manager) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushPendingLocked()
}

// TxnAbort aborts the process's transaction (txn_abort): locate the lock
// chain, release locks, and invalidate any dirty buffers associated with
// them. The on-disk before-images — preserved by the no-overwrite policy —
// become current again automatically, because the inode never learned about
// the aborted pages.
func (p *Process) TxnAbort() error {
	if p.txn == nil || p.txn.status != txnRunning {
		return ErrNoTxn
	}
	m := p.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock.Advance(m.costs.Syscall + m.costs.TxnOp)
	t := p.txn
	pool := m.fs.Pool()
	if m.opts.Granularity == SubPage {
		// Restore the written byte ranges in place; pages may carry other
		// transactions' not-yet-flushed committed bytes and must survive.
		if err := m.applyUndoLocked(t); err != nil {
			return err
		}
	}
	for _, id := range detsort.KeysFunc(t.pages, buffer.CompareBlockID) {
		m.heldBy[id]--
		if m.heldBy[id] == 0 {
			delete(m.heldBy, id)
			if b := pool.Lookup(id); b != nil {
				pool.SetHold(b, false)
			}
			if m.opts.Granularity == Page {
				if err := pool.Invalidate(id); err != nil {
					return fmt.Errorf("core: abort invalidate %v: %w", id, err)
				}
			}
		}
	}
	m.locks.ReleaseAll(lock.TxnID(t.id))
	m.clock.Advance(m.costs.KernelSync())
	t.status = txnDone
	p.txn = nil
	m.stats.Aborted++
	if m.tracer.Enabled() {
		m.tracer.Complete("txn", "txn", t.start, trace.AU("txn", t.id), trace.AS("outcome", "abort"))
		m.ctrAborts.Add(1)
	}
	return nil
}

// abortOnDeadlock is invoked when a lock request deadlocks: the transaction
// is aborted and the error surfaced to the caller.
// abortOnDeadlock rolls back the deadlock victim's transaction.
//
//simlint:alloc(cold deadlock victim path: the rollback allocates by design)
func (p *Process) abortOnDeadlock() {
	p.m.mu.Lock()
	p.m.stats.Deadlocks++
	p.m.mu.Unlock()
	p.m.locks.NoteDeadlockAbort()
	_ = p.TxnAbort()
}

// InTxn reports whether the process has an active transaction.
func (p *Process) InTxn() bool { return p.txn != nil && p.txn.status == txnRunning }
