package tpcb

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/libtp"
	"repro/internal/pagestore"
	"repro/internal/recno"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Relation paths.
const (
	AccountPath = "/account"
	TellerPath  = "/teller"
	BranchPath  = "/branch"
	HistoryPath = "/history"
)

// DBPaths lists all relation files (for LIBTP crash recovery).
func DBPaths() []string {
	return []string{AccountPath, TellerPath, BranchPath, HistoryPath}
}

// ScanAccountsOn walks the account B-tree in key order through a raw file
// store on any file system (the §5.3 SCAN test measurement).
func ScanAccountsOn(fsys vfs.FileSystem) (int64, error) {
	return scanAccounts(fsys)
}

// scanAccounts walks the account B-tree in key order through a raw file
// store (the SCAN test measures file-system layout, not locking).
func scanAccounts(fsys vfs.FileSystem) (int64, error) {
	f, err := fsys.Open(AccountPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return countAccounts(pagestore.NewFileStore(f, fsys.BlockSize()))
}

// countAccounts walks the account B-tree on st in key order and returns the
// row count.
func countAccounts(st pagestore.Store) (int64, error) {
	tr, err := btree.Open(st)
	if err != nil {
		return 0, err
	}
	c, err := tr.First()
	if err != nil {
		return 0, err
	}
	var n int64
	for c.Next() {
		n++
	}
	return n, c.Err()
}

// addBalance adds amount to the balance of record id in the B-tree on st,
// charging one record-layer operation. The update is a write-intent
// read-modify-write (btree.Update): the leaf is write-locked on its first
// read and rewritten in place, so no page lock is ever upgraded.
func addBalance(st pagestore.Store, clock *sim.Clock, costs sim.CostModel, id, amount int64) error {
	clock.Advance(costs.RecordOp)
	tr, err := btree.Open(st)
	if err != nil {
		return err
	}
	return tr.Update(Key(id), func(rec []byte) { SetBalance(rec, Balance(rec)+amount) })
}

// --- user-level system (LIBTP, Figure 2) ---

// shard is one partition of the user-level system: a transaction
// environment with its own file system and write-ahead log, and its slice
// of the relations.
type shard struct {
	env *libtp.Env
	acc *libtp.DB
	tel *libtp.DB
	brn *libtp.DB
	hst *libtp.DB
}

// attach opens the four relations on the shard's environment.
func (sh *shard) attach() error {
	var err error
	if sh.acc, err = sh.env.OpenDB(AccountPath); err != nil {
		return err
	}
	if sh.tel, err = sh.env.OpenDB(TellerPath); err != nil {
		return err
	}
	if sh.brn, err = sh.env.OpenDB(BranchPath); err != nil {
		return err
	}
	sh.hst, err = sh.env.OpenDB(HistoryPath)
	return err
}

// UserSystem runs TPC-B through the user-level transaction manager on one
// or more transaction environments, with the relations range-partitioned
// across them by the Partitioner. A single disk (or a striped array, which
// presents one file system) is the one-shard case.
//
// Transactions touching a single shard commit through the ordinary local
// path; cross-shard transactions run two-phase commit over the per-shard
// logs, with the account's shard as coordinator (the history record lands
// there too, so the coordinator always has work of its own). All shards
// share one lock manager — under namespaced lock ids — so cross-shard
// waits-for cycles are detected and broken exactly like local ones.
type UserSystem struct {
	clock  *sim.Clock
	costs  sim.CostModel
	part   *Partitioner
	shards []*shard
	label  string
	gids   uint64 // global-transaction id counter (unique across the run)

	// Cross-shard accounting.
	crossTxns  int64
	singleTxns int64
}

// NewUserSystem builds the user-level configuration over the given
// per-shard environments: one for a single file system, or one per device
// of a partitioned array (created by the rig with a shared lock manager and
// distinct lock spaces).
func NewUserSystem(envs []*libtp.Env, part *Partitioner, clock *sim.Clock, costs sim.CostModel) *UserSystem {
	s := &UserSystem{
		clock: clock,
		costs: costs,
		part:  part,
		label: "user-" + envs[0].FS().Name(),
	}
	if len(envs) > 1 {
		s.label += fmt.Sprintf("[%d]", len(envs))
	}
	for _, env := range envs {
		s.shards = append(s.shards, &shard{env: env})
	}
	return s
}

// Name implements System.
func (s *UserSystem) Name() string { return s.label }

// CrossShardTxns returns how many committed transactions spanned shards and
// how many stayed local.
func (s *UserSystem) CrossShardTxns() (cross, single int64) {
	return s.crossTxns, s.singleTxns
}

// Load implements System: bulk-load each shard's slice of the relations and
// open the per-shard database handles.
func (s *UserSystem) Load(cfg Config) error {
	for i, sh := range s.shards {
		if err := loadShardRelations(sh.env.FS(), s.part, i); err != nil {
			return err
		}
		if err := sh.attach(); err != nil {
			return err
		}
	}
	return nil
}

// Attach opens the relations on already-loaded (e.g. recovered) shard
// environments. No load is performed.
func (s *UserSystem) Attach() error {
	for _, sh := range s.shards {
		if err := sh.attach(); err != nil {
			return err
		}
	}
	return nil
}

// shardTxns holds one TPC-B transaction's shard-local transactions in
// ascending shard order. Account, teller and branch may each live on a
// different shard, so three slots always suffice.
type shardTxns struct {
	n  int
	sh [3]int
	tx [3]*libtp.Txn
}

// begin returns shard sh's local transaction, starting it on first use.
func (l *shardTxns) begin(s *UserSystem, sh int) *libtp.Txn {
	i := 0
	for i < l.n && l.sh[i] < sh {
		i++
	}
	if i < l.n && l.sh[i] == sh {
		return l.tx[i]
	}
	copy(l.sh[i+1:l.n+1], l.sh[i:l.n])
	copy(l.tx[i+1:l.n+1], l.tx[i:l.n])
	l.sh[i], l.tx[i] = sh, s.shards[sh].env.Begin()
	l.n++
	return l.tx[i]
}

// abort rolls back every shard-local transaction.
func (l *shardTxns) abort() {
	for _, tx := range l.tx[:l.n] {
		tx.Abort()
	}
}

// Run implements System: the classic read-update of account, teller, and
// branch plus a history append, each routed to its owning shard, then a
// commit — local when one shard saw all the work, two-phase otherwise.
func (s *UserSystem) Run(t Txn) error {
	as := s.part.ShardOfAccount(t.Account)
	ts := s.part.ShardOfTeller(t.Teller)
	bs := s.part.ShardOfBranch(t.Branch)

	// Begin the coordinator (the account's shard) first so its local
	// transaction ids advance deterministically.
	var l shardTxns
	coord := l.begin(s, as)
	if err := addBalance(l.begin(s, as).Store(s.shards[as].acc), s.clock, s.costs, t.Account, t.Amount); err != nil {
		l.abort()
		return err
	}
	if err := addBalance(l.begin(s, ts).Store(s.shards[ts].tel), s.clock, s.costs, t.Teller, t.Amount); err != nil {
		l.abort()
		return err
	}
	if err := addBalance(l.begin(s, bs).Store(s.shards[bs].brn), s.clock, s.costs, t.Branch, t.Amount); err != nil {
		l.abort()
		return err
	}
	// The history record follows the account: the coordinator shard always
	// carries the transaction's one durable history row.
	s.clock.Advance(s.costs.RecordOp)
	hf, err := recno.OpenForAppend(coord.Store(s.shards[as].hst))
	if err != nil {
		l.abort()
		return err
	}
	if _, err := hf.Append(HistoryRecord(t.Account, t.Teller, t.Branch, t.Amount, int64(s.clock.Now()))); err != nil {
		l.abort()
		return err
	}

	// Single-shard fast path: the ordinary local commit.
	if l.n == 1 {
		if err := coord.Commit(); err != nil {
			return err
		}
		s.singleTxns++
		return nil
	}

	// Two-phase commit. Phase 1: every non-coordinator participant
	// prepares (durably, group-batched) while holding its locks.
	s.gids++
	gid := s.gids
	for i, tx := range l.tx[:l.n] {
		if l.sh[i] == as {
			continue
		}
		if err := tx.Prepare(gid); err != nil {
			l.abort()
			return err
		}
	}
	// Decision: the coordinator logs prepare + global-commit + its own
	// commit and forces once; when CommitGlobal returns the decision is
	// durable and the global transaction is committed.
	if err := coord.CommitGlobal(gid); err != nil {
		return err
	}
	// Phase 2: participants commit lazily — the decision record already
	// owns their fate, so no per-shard force is needed.
	for i, tx := range l.tx[:l.n] {
		if l.sh[i] == as {
			continue
		}
		if err := tx.CommitPrepared(); err != nil {
			return err
		}
	}
	s.crossTxns++
	return nil
}

// NewWorker implements MultiClient. All per-call state lives in the
// transactions, which address the shared DB handles through their own
// transactional stores, so every client can share the System itself.
func (s *UserSystem) NewWorker() (Worker, error) { return s, nil }

// Drain implements System, in two phases across all shards: first force
// every shard's log, then checkpoint every shard (flushing the caches). The
// order matters — a checkpoint truncates its shard's log, and an undecided
// prepare record on shard A must never outlive the loss of its decision
// record on shard B; after phase one every decision every shard depends on
// is durable.
func (s *UserSystem) Drain() error {
	for _, sh := range s.shards {
		if err := sh.env.ForceLog(); err != nil {
			return err
		}
	}
	for _, sh := range s.shards {
		if err := sh.env.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// ScanAccounts implements System: scan every shard's slice in shard order
// (which is key order, since partitions are ascending contiguous ranges).
func (s *UserSystem) ScanAccounts() (int64, error) {
	var n int64
	for _, sh := range s.shards {
		c, err := scanAccounts(sh.env.FS())
		if err != nil {
			return n, err
		}
		n += c
	}
	return n, nil
}

// Close implements System.
func (s *UserSystem) Close() error { return nil }

// --- embedded system (Figure 3) ---

// EmbeddedSystem runs TPC-B through the kernel transaction manager in LFS.
type EmbeddedSystem struct {
	m     *core.Manager
	clock *sim.Clock
	costs sim.CostModel
	proc  *core.Process
	acc   *core.File
	tel   *core.File
	brn   *core.File
	hist  *core.File
}

// NewEmbeddedSystem builds the kernel configuration.
func NewEmbeddedSystem(m *core.Manager, clock *sim.Clock, costs sim.CostModel) *EmbeddedSystem {
	return &EmbeddedSystem{m: m, clock: clock, costs: costs, proc: m.NewProcess()}
}

// Name implements System.
func (s *EmbeddedSystem) Name() string { return "kernel-lfs" }

// Load implements System: bulk-load, then turn transaction-protection on
// for all four relations.
func (s *EmbeddedSystem) Load(cfg Config) error {
	part, err := NewPartitioner(cfg, 1)
	if err != nil {
		return err
	}
	if err := loadShardRelations(s.m.FS(), part, 0); err != nil {
		return err
	}
	for _, p := range DBPaths() {
		if err := s.m.Protect(p); err != nil {
			return err
		}
	}
	if err := s.m.FS().Sync(); err != nil {
		return err
	}
	if s.acc, err = s.m.Open(AccountPath); err != nil {
		return err
	}
	if s.tel, err = s.m.Open(TellerPath); err != nil {
		return err
	}
	if s.brn, err = s.m.Open(BranchPath); err != nil {
		return err
	}
	if s.hist, err = s.m.Open(HistoryPath); err != nil {
		return err
	}
	return nil
}

// Attach opens the four relations on an already-loaded file system (after a
// crash and remount, for instance). No load is performed.
func (s *EmbeddedSystem) Attach() error {
	var err error
	if s.acc, err = s.m.Open(AccountPath); err != nil {
		return err
	}
	if s.tel, err = s.m.Open(TellerPath); err != nil {
		return err
	}
	if s.brn, err = s.m.Open(BranchPath); err != nil {
		return err
	}
	if s.hist, err = s.m.Open(HistoryPath); err != nil {
		return err
	}
	return nil
}

// Run implements System, executing on the system's default process.
func (s *EmbeddedSystem) Run(t Txn) error { return s.runWith(s.proc, t) }

// runWith executes one transaction on the given kernel process.
func (s *EmbeddedSystem) runWith(proc *core.Process, t Txn) error {
	if err := proc.TxnBegin(); err != nil {
		return err
	}
	if err := addBalance(core.NewStore(proc, s.acc), s.clock, s.costs, t.Account, t.Amount); err != nil {
		proc.TxnAbort()
		return err
	}
	if err := addBalance(core.NewStore(proc, s.tel), s.clock, s.costs, t.Teller, t.Amount); err != nil {
		proc.TxnAbort()
		return err
	}
	if err := addBalance(core.NewStore(proc, s.brn), s.clock, s.costs, t.Branch, t.Amount); err != nil {
		proc.TxnAbort()
		return err
	}
	s.clock.Advance(s.costs.RecordOp)
	hf, err := recno.OpenForAppend(core.NewStore(proc, s.hist))
	if err != nil {
		proc.TxnAbort()
		return err
	}
	if _, err := hf.Append(HistoryRecord(t.Account, t.Teller, t.Branch, t.Amount, int64(s.clock.Now()))); err != nil {
		proc.TxnAbort()
		return err
	}
	return proc.TxnCommit()
}

// embeddedWorker is one client's kernel process (the paper's restriction 3:
// transactions may not span processes, so each client needs its own).
type embeddedWorker struct {
	s    *EmbeddedSystem
	proc *core.Process
}

func (w *embeddedWorker) Run(t Txn) error { return w.s.runWith(w.proc, t) }

// NewWorker implements MultiClient: a fresh kernel process sharing the open
// relation files.
func (s *EmbeddedSystem) NewWorker() (Worker, error) {
	return &embeddedWorker{s: s, proc: s.m.NewProcess()}, nil
}

// Drain implements System.
func (s *EmbeddedSystem) Drain() error { return s.m.Flush() }

// ScanAccounts implements System.
func (s *EmbeddedSystem) ScanAccounts() (int64, error) {
	return scanAccounts(s.m.FS())
}

// Close implements System.
func (s *EmbeddedSystem) Close() error { return nil }
