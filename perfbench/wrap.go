package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/tpcb"
	"repro/internal/trace"
)

// benchSystem wraps a rig's tpcb.System so the stock run loops
// (RunBenchmarkMPLTraced, RunMixedMPLTraced) run unchanged while the
// benchmark observes every transaction, scan, idle-clean step and drain from
// outside the program: simulated response times, attempt counts, the
// committed stream of each client, and scan row counts. With a tracer it
// also records one span per txn (first attempt to commit), per attempt
// (arg "txn" names the parent), per scan, per idle-clean step and for the
// drain.
type benchSystem struct {
	tpcb.System
	clock *sim.Clock
	tr    *trace.Tracer
	idle  func() error

	clients []*benchWorker
	scans   []*benchScanner

	idleSteps int64
	idleTime  time.Duration
	drainTime time.Duration
}

func newBenchSystem(rig *tpcb.Rig) *benchSystem {
	return &benchSystem{System: rig.Sys, clock: rig.Clock, tr: rig.Tracer, idle: rig.Idle}
}

// NewWorker implements tpcb.MultiClient. The run loops create their workers
// in client order, so worker i is client i.
func (s *benchSystem) NewWorker() (tpcb.Worker, error) {
	var inner tpcb.Worker = s.System
	if mc, ok := s.System.(tpcb.MultiClient); ok {
		w, err := mc.NewWorker()
		if err != nil {
			return nil, err
		}
		inner = w
	}
	w := &benchWorker{sys: s, inner: inner, client: len(s.clients)}
	s.clients = append(s.clients, w)
	return w, nil
}

// NewScanner implements tpcb.ScanCapable.
func (s *benchSystem) NewScanner(mode tpcb.ScanMode) (tpcb.Scanner, tpcb.ScanMode, error) {
	sc, ok := s.System.(tpcb.ScanCapable)
	if !ok {
		return nil, tpcb.ScanNone, fmt.Errorf("%s cannot scan", s.Name())
	}
	inner, eff, err := sc.NewScanner(mode)
	if err != nil {
		return nil, eff, err
	}
	w := &benchScanner{sys: s, inner: inner}
	s.scans = append(s.scans, w)
	return w, eff, nil
}

// Drain implements tpcb.System.
func (s *benchSystem) Drain() error {
	sp := s.tr.Begin("bench", "drain")
	start := s.clock.Now()
	err := s.System.Drain()
	s.drainTime += s.clock.Now() - start
	sp.End()
	return err
}

// idleHook wraps the rig's between-transactions cleaner step, or returns
// nil when the rig has none.
func (s *benchSystem) idleHook() func() error {
	if s.idle == nil {
		return nil
	}
	return func() error {
		sp := s.tr.Begin("bench", "idle-clean")
		start := s.clock.Now()
		err := s.idle()
		s.idleTime += s.clock.Now() - start
		s.idleSteps++
		sp.End()
		return err
	}
}

// benchWorker is one client. The run loops retry a deadlock victim with the
// same txn, so an attempt that follows a deadlock continues the pending txn
// and its response time runs from the first attempt.
type benchWorker struct {
	sys    *benchSystem
	inner  tpcb.Worker
	client int

	pending    bool
	pendingTxn tpcb.Txn
	firstStart time.Duration
	txnSpan    trace.Span

	attempts  int64
	retries   int64 // attempts that lost deadlock detection
	committed []tpcb.Txn
	resp      []time.Duration
	err       error // first protocol violation seen
}

// Run implements tpcb.Worker.
func (w *benchWorker) Run(t tpcb.Txn) error {
	clk, tr := w.sys.clock, w.sys.tr
	id := int64(w.client)<<32 | int64(len(w.committed))
	if !w.pending {
		w.pending, w.pendingTxn, w.firstStart = true, t, clk.Now()
		w.txnSpan = tr.Begin("bench", "txn")
	} else if t != w.pendingTxn && w.err == nil {
		w.err = fmt.Errorf("client %d: retry ran %+v, pending txn is %+v", w.client, t, w.pendingTxn)
	}
	w.attempts++
	sp := tr.Begin("bench", "attempt")
	err := w.inner.Run(t)
	outcome := "commit"
	switch {
	case err == nil:
		w.pending = false
		w.committed = append(w.committed, t)
		w.resp = append(w.resp, clk.Now()-w.firstStart)
	case errors.Is(err, lock.ErrDeadlock):
		outcome = "deadlock"
		w.retries++
	default:
		outcome = "error"
	}
	sp.End(trace.AI("txn", id), trace.AS("outcome", outcome))
	if err == nil {
		w.txnSpan.End(trace.AI("txn", id))
	}
	return err
}

// benchScanner times each full account scan in simulated time.
type benchScanner struct {
	sys   *benchSystem
	inner tpcb.Scanner
	rows  []int64
	dur   []time.Duration
}

// Scan implements tpcb.Scanner.
func (w *benchScanner) Scan() (int64, error) {
	sp := w.sys.tr.Begin("bench", "scan")
	start := w.sys.clock.Now()
	n, err := w.inner.Scan()
	if err == nil {
		w.rows = append(w.rows, n)
		w.dur = append(w.dur, w.sys.clock.Now()-start)
	}
	sp.End(trace.AI("rows", n))
	return n, err
}
