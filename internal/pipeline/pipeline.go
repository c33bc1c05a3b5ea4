// Package pipeline implements the end-to-end processing pipeline of
// Figure 9: a chain of stages (load → filter → back-projection → MPI →
// store in the paper) connected by bounded FIFO queues, so every batch
// flows through all stages while different batches occupy different
// stages concurrently. Each stage runs on one goroutine and sees the
// batches in order; the width inside a stage (the kernel's workers, the
// filter's) is the stage's own business. Every stage invocation is recorded
// as a span in the pipeline's telemetry registry, from which
// telemetry.RenderGantt draws the Figure 10-style timeline that
// demonstrates the overlap.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"distfdk/internal/telemetry"
)

// StageFunc processes one batch, named by its index. Stages hand no data
// to each other through the pipeline: each reads what it needs for the
// batch from state it shares with its neighbours.
type StageFunc func(batch int) error

// Idle is what a StageFunc returns when it had no work for the batch (a
// checkpointed slab, detector rows that are already resident): no span is
// recorded, so a trace shows the work that ran rather than the stage list.
// Like filepath.SkipDir it is a signal to the executor and is never returned
// by Run.
var Idle = errors.New("pipeline: stage idle")

// Stage is one named step of the pipeline.
type Stage struct {
	Name string
	Fn   StageFunc
}

// Pipeline executes its stages over a sequence of batches.
type Pipeline struct {
	stages []Stage
	// Telemetry, when non-nil, receives a span for every (stage, batch) that
	// did work. Nil costs one pointer check per invocation.
	Telemetry *telemetry.Registry
}

// queueDepth bounds each inter-stage FIFO of Run (Figure 9's queues):
// enough to decouple neighbours, and a bound on how far a stage runs ahead
// of the next.
const queueDepth = 2

// New builds a pipeline from the given stages; every stage needs a function.
func New(stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, errors.New("pipeline: no stages")
	}
	for i, s := range stages {
		if s.Fn == nil {
			return nil, fmt.Errorf("pipeline: stage %d (%q) has no function", i, s.Name)
		}
	}
	return &Pipeline{stages: stages}, nil
}

// Run pushes batches 0..nBatches−1 through every stage, each stage on its
// own goroutine — the last on the caller's, which would otherwise only wait
// — and returns the first error of each failing stage. enter, when non-nil,
// is called before each (stage, batch) invocation opens its span — before
// an idle one too — so what it records of a batch comes before any span the
// batch leaves in that stage; its error fails the stage like the stage's
// own, unwrapped. A failure stops the work that can no longer reach the end
// of the chain: the failed stage and every stage before it drain their
// input without calling enter or Fn, so upstream never blocks and never
// loads, filters or back-projects a batch nothing will store. Stages after
// the failure still finish the in-order prefix the failed stage forwarded
// before it failed.
func (p *Pipeline) Run(nBatches int, enter func(stage string, batch int) error) error {
	if nBatches < 0 {
		return fmt.Errorf("pipeline: negative batch count %d", nBatches)
	}
	n := len(p.stages)
	queues := make([]chan int, n-1)
	for i := range queues {
		queues[i] = make(chan int, queueDepth)
	}
	// halted is the index of the furthest-downstream stage that has failed,
	// −1 while none has; stage si invokes nothing once halted ≥ si.
	var halted atomic.Int64
	halted.Store(-1)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := 0; si < n-1; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			errs[si] = p.runStage(si, nBatches, enter, queues, &halted)
		}(si)
	}
	errs[n-1] = p.runStage(n-1, nBatches, enter, queues, &halted)
	wg.Wait()
	return errors.Join(errs...)
}

// runStage executes stage si until its input is exhausted: the first stage
// generates batches 0..nBatches−1 itself, every other reads queues[si−1],
// and every stage but the last writes queues[si] and closes it when done.
func (p *Pipeline) runStage(si, nBatches int, enter func(string, int) error, queues []chan int, halted *atomic.Int64) error {
	stage := p.stages[si]
	var stageErr error
	process := func(batch int) {
		if halted.Load() >= int64(si) {
			return // draining: a failure at or after this stage
		}
		if err := p.invoke(stage, batch, enter); err != nil {
			stageErr = err
			for h := halted.Load(); h < int64(si); h = halted.Load() {
				if halted.CompareAndSwap(h, int64(si)) {
					break
				}
			}
			return
		}
		if si < len(queues) {
			queues[si] <- batch
		}
	}
	if si < len(queues) {
		defer close(queues[si])
	}
	if si == 0 {
		for b := 0; b < nBatches; b++ {
			process(b)
		}
	} else {
		for b := range queues[si-1] {
			process(b)
		}
	}
	return stageErr
}

// invoke calls enter, then runs the stage function on one batch inside a
// span. The span is closed before the error is looked at — a failing stage
// still leaves its span in the trace — and every stage error names its stage
// and batch.
func (p *Pipeline) invoke(stage Stage, batch int, enter func(string, int) error) error {
	if enter != nil {
		if err := enter(stage.Name, batch); err != nil {
			return err
		}
	}
	end := p.Telemetry.Span(stage.Name, batch)
	err := stage.Fn(batch)
	if err == Idle {
		return nil // an unclosed span is never recorded
	}
	end()
	if err != nil {
		return fmt.Errorf("pipeline: stage %q batch %d: %w", stage.Name, batch, err)
	}
	return nil
}
