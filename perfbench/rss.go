package main

import (
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// rssSampler tracks the peak resident set size of the process by polling
// /proc/self/statm, so that the peak of each round can be read and reset
// (getrusage's peak only ever grows over the process's life).
type rssSampler struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

// rssInterval is the polling period: short next to a run, long enough to
// cost well under one per cent of a core.
const rssInterval = 2 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// sample raises the peak to the current resident size.
func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for {
		p := s.peak.Load()
		if rss <= p || s.peak.CompareAndSwap(p, rss) {
			return
		}
	}
}

// takePeak returns the peak in MB since the last call and starts a new one.
func (s *rssSampler) takePeak() float64 {
	s.sample()
	return float64(s.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
