package nettrans

import (
	"fmt"
	"sync"

	"distfdk/internal/mpi"
)

// Fleet is an in-process multi-node world over real loopback sockets:
// one Node per simulated process, the hub listening on 127.0.0.1:0,
// workers dialing it. Every byte crosses the kernel's TCP stack, so it
// exercises exactly the wire path the multi-process launcher uses, while
// staying runnable (and race-detectable) inside one
// test binary. All nodes share the fleet Config's Telemetry registry and
// Injector; MsgIDBase is forced to 0 so the shared run keeps globally
// paired flow records.
type Fleet struct {
	Nodes []*Node
}

// NewFleet starts procs nodes wired to one hub. cfg.Proc and cfg.Addr are
// overwritten per node; every other field applies fleet-wide.
func NewFleet(procs int, cfg Config) (*Fleet, error) {
	if procs < 1 {
		return nil, fmt.Errorf("nettrans: fleet needs >= 1 proc, got %d", procs)
	}
	cfg.fill()
	cfg.Procs = procs
	cfg.MsgIDBase = 0
	hubCfg := cfg
	hubCfg.Proc, hubCfg.Addr = 0, "127.0.0.1:0"
	hub, err := NewNode(hubCfg)
	if err != nil {
		return nil, err
	}
	fl := &Fleet{Nodes: []*Node{hub}}
	for p := 1; p < procs; p++ {
		wc := cfg
		wc.Proc = p
		wc.Addr = hub.Addr()
		w, err := NewNode(wc)
		if err != nil {
			fl.Close()
			return nil, err
		}
		fl.Nodes = append(fl.Nodes, w)
	}
	return fl, nil
}

// Run executes one epoch on every node concurrently (each node launches
// its own ranks, exactly as separate OS processes would) and returns the
// per-proc errors. assign maps proc -> world ranks.
func (fl *Fleet) Run(size int, assign [][]int, opt mpi.Options, fn func(c *mpi.Comm) error) []error {
	errs := make([]error, len(fl.Nodes))
	var wg sync.WaitGroup
	for i, n := range fl.Nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = n.Run(size, assign, opt, fn)
		}(i, n)
	}
	wg.Wait()
	return errs
}

// Close tears every node down.
func (fl *Fleet) Close() {
	for _, n := range fl.Nodes {
		n.Close()
	}
}
