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

// StageFunc processes one batch. It receives the batch index and the
// payload produced by the previous stage (nil for the first stage) and
// returns the payload for the next stage.
type StageFunc func(batch int, in any) (any, error)

// Idle is what a StageFunc returns when it had no work for the batch (a
// checkpointed slab, detector rows that are already resident): the input
// payload passes on unchanged and no span is recorded, so a trace shows the
// work that ran rather than the stage list. Like filepath.SkipDir it is a
// signal to the executor and is never returned by Run or RunSerial.
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
// enough to decouple neighbours without buffering more than a few
// multi-gigabyte payloads.
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

type item struct {
	batch   int
	payload any
}

// Run pushes batches 0..nBatches−1 through every stage, each stage on its
// own goroutine, and returns the first error of each failing stage. A
// failure stops the work that can no longer reach the end of the chain: the
// failed stage and every stage before it drain their input without invoking
// Fn, so upstream never blocks and never loads, filters or back-projects a
// batch nothing will store. Stages after the failure still finish the
// in-order prefix the failed stage forwarded before it failed.
func (p *Pipeline) Run(nBatches int) error {
	if nBatches < 0 {
		return fmt.Errorf("pipeline: negative batch count %d", nBatches)
	}
	n := len(p.stages)
	queues := make([]chan item, n-1)
	for i := range queues {
		queues[i] = make(chan item, queueDepth)
	}
	// halted is the index of the furthest-downstream stage that has failed,
	// −1 while none has; stage si invokes nothing once halted ≥ si.
	var halted atomic.Int64
	halted.Store(-1)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := range p.stages {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var in <-chan item
			if si > 0 {
				in = queues[si-1]
			}
			var out chan<- item
			if si < n-1 {
				out = queues[si]
				defer close(queues[si])
			}
			errs[si] = p.runStage(si, nBatches, in, out, &halted)
		}(si)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunSerial pushes the same batches through the same stages one batch at a
// time on the calling goroutine: batch b leaves the last stage before batch
// b+1 enters the first, so no two stages ever run concurrently. It is Run
// without the overlap — the paper's §4.2 ablation, and the order a
// distributed rank runs its batches in. enter, when non-nil, is called at
// each batch boundary before any stage (or span) of that batch; its error
// ends the run unwrapped. A stage error ends the run at once.
func (p *Pipeline) RunSerial(nBatches int, enter func(batch int) error) error {
	for b := 0; b < nBatches; b++ {
		if enter != nil {
			if err := enter(b); err != nil {
				return err
			}
		}
		it := item{batch: b}
		for _, stage := range p.stages {
			payload, err := p.invoke(stage, it)
			if err != nil {
				return err
			}
			it.payload = payload
		}
	}
	return nil
}

// runStage executes stage si of Run until its input is exhausted. in is nil
// for the first stage, which generates batches 0..nBatches−1 itself; out is
// nil for the last stage.
func (p *Pipeline) runStage(si, nBatches int, in <-chan item, out chan<- item, halted *atomic.Int64) error {
	stage := p.stages[si]
	var stageErr error
	process := func(it item) {
		if halted.Load() >= int64(si) {
			return // draining: a failure at or after this stage
		}
		payload, err := p.invoke(stage, it)
		if err != nil {
			stageErr = err
			for h := halted.Load(); h < int64(si); h = halted.Load() {
				if halted.CompareAndSwap(h, int64(si)) {
					break
				}
			}
			return
		}
		if out != nil {
			out <- item{batch: it.batch, payload: payload}
		}
	}
	if in == nil {
		for b := 0; b < nBatches; b++ {
			process(item{batch: b})
		}
	} else {
		for it := range in {
			process(it)
		}
	}
	return stageErr
}

// invoke runs the stage function on one item inside a span. Every executor
// calls stages through here, so the span is closed before the error is
// looked at — a failing stage still leaves its span in the trace — and
// every stage error names its stage and batch.
func (p *Pipeline) invoke(stage Stage, it item) (any, error) {
	end := p.Telemetry.Span(stage.Name, it.batch)
	payload, err := stage.Fn(it.batch, it.payload)
	if err == Idle {
		return it.payload, nil // an unclosed span is never recorded
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage %q batch %d: %w", stage.Name, it.batch, err)
	}
	return payload, nil
}
