// Package pipeline implements the end-to-end processing pipeline of
// Figure 9: a chain of stages (load → filter → back-projection → MPI →
// store in the paper) connected by bounded FIFO queues, so every batch
// flows through all stages while different batches occupy different
// stages concurrently. A stage may declare Workers > 1 to process several
// batches at once (an elastic stage); a reorder buffer restores batch
// order before the next queue, so downstream stages always observe the
// same ordered stream as the single-worker pipeline. The reorder buffer
// is bounded: dispatch credits stop an elastic stage from accepting a
// batch until every batch more than InFlightBound positions before it
// has been emitted in order, so one straggling batch can never buffer
// the rest of the run in memory. Every stage invocation is recorded as a
// span in the pipeline's telemetry registry, from which
// telemetry.RenderGantt draws the Figure 10-style timeline that
// demonstrates the overlap.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
	// Workers is the number of concurrent executions of Fn this stage may
	// run; 0 and 1 both mean the classic one-goroutine stage. When
	// Workers > 1, Fn MUST be safe for concurrent calls: batches are
	// dispatched to Workers goroutines in arrival order and their results
	// pass through a reorder buffer, so the next stage still receives
	// batches in the original order, but up to Workers invocations of Fn
	// run simultaneously and must not share unsynchronised mutable state.
	// Dispatch is credit-bounded: batch b enters a worker only after every
	// batch ≤ b − InFlightBound(QueueDepth, Workers) has been emitted to
	// the next stage, which both caps the reorder buffer and gives
	// upstream stages a hard completion guarantee to schedule shared
	// resources against (see internal/core's projection-ring release).
	Workers int
}

// Pipeline executes its stages over a sequence of batches.
type Pipeline struct {
	stages []Stage
	// QueueDepth bounds each inter-stage FIFO (Figure 9's queues). New
	// initialises it to DefaultQueueDepth, enough to decouple neighbours
	// without unbounded buffering of multi-gigabyte payloads; callers may
	// raise it before Run. Run rejects non-positive values instead of
	// silently substituting a default.
	QueueDepth int
	// Telemetry, when non-nil, receives a span for every (stage, batch) that
	// did work and the executor's own metrics — per-stage dispatch counts
	// and elastic credit-wait time (the time a stage's dispatcher spent
	// blocked on the in-flight bound, i.e. on its own reorder buffer
	// draining). Nil costs one pointer check per invocation.
	Telemetry *telemetry.Registry
}

// DefaultQueueDepth is the inter-stage FIFO bound New installs.
const DefaultQueueDepth = 2

// InFlightBound returns the maximum number of batches an elastic stage
// with the given worker count may hold between intake and in-order
// emission, in a pipeline with the given queue depth. Run enforces the
// bound with dispatch credits: the dispatcher spends one credit per batch
// it takes from the stage's input (before the take, so waiting batches
// stay in the bounded queue) and the emitter returns one per sequence
// number it retires in order, so whenever batch b has entered the stage,
// every batch ≤ b − InFlightBound has already completed and been
// emitted. queueDepth's share of the bound is pure slack so the workers
// stay saturated while the emitter waits on a slow head batch.
func InFlightBound(queueDepth, workers int) int {
	if queueDepth < 1 {
		queueDepth = 1
	}
	if workers < 1 {
		workers = 1
	}
	return queueDepth + workers
}

// UpstreamCompletionLag returns the completion guarantee a sequential
// stage holds over an elastic stage with the given worker count fed
// directly by its output queue: while the upstream stage processes batch
// c, every batch strictly below c − UpstreamCompletionLag has been fully
// processed and emitted by the elastic stage (batch c − lag itself may
// still be in flight). The accounting: when the upstream stage starts
// batch c it has completed c sends, at most queueDepth of them still sit
// in the connecting queue, so the elastic stage has taken at least
// c − queueDepth batches, and the dispatch credits guarantee every batch
// more than InFlightBound below the newest taken one has emitted. Callers that
// stage per-batch resources shared with a downstream elastic stage (the
// projection ring in internal/core) derive their release schedule from
// this lag; Run's credit-before-take dispatch order is what makes the
// bound sound, so tests pin both.
func UpstreamCompletionLag(queueDepth, workers int) int {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return queueDepth + InFlightBound(queueDepth, workers)
}

// New builds a pipeline from the given stages and validates them: every
// stage needs a function and a non-negative worker count. QueueDepth is
// set to DefaultQueueDepth here — Run does not default it, so a caller
// that overrides the field owns the value it set.
func New(stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, errors.New("pipeline: no stages")
	}
	for i, s := range stages {
		if s.Fn == nil {
			return nil, fmt.Errorf("pipeline: stage %d (%q) has no function", i, s.Name)
		}
		if s.Workers < 0 {
			return nil, fmt.Errorf("pipeline: stage %d (%q) has negative worker count %d", i, s.Name, s.Workers)
		}
	}
	return &Pipeline{stages: stages, QueueDepth: DefaultQueueDepth}, nil
}

type item struct {
	batch   int
	payload any
}

// seqItem tags an item with its arrival sequence number at a stage, the
// key the reorder buffer emits by.
type seqItem struct {
	seq int
	item
	ok bool // false: dropped (stage error), advance the cursor only
}

// stageState is the shared error/drain state of one elastic stage's
// workers.
type stageState struct {
	failed atomic.Bool
	mu     sync.Mutex
	err    error
}

func (s *stageState) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.failed.Store(true)
}

// Run pushes batches 0..nBatches−1 through every stage and returns the
// first error from each failing stage. After a stage fails it keeps
// draining its input so upstream stages never block, preserving liveness.
// Elastic stages (Workers > 1) preserve both properties: batches they
// emit are restored to input order, and on error the remaining input is
// drained without invoking the stage function.
func (p *Pipeline) Run(nBatches int) error {
	if nBatches < 0 {
		return fmt.Errorf("pipeline: negative batch count %d", nBatches)
	}
	if p.QueueDepth <= 0 {
		return fmt.Errorf("pipeline: QueueDepth %d must be positive (New sets %d)", p.QueueDepth, DefaultQueueDepth)
	}
	n := len(p.stages)
	queues := make([]chan item, n-1)
	for i := range queues {
		queues[i] = make(chan item, p.QueueDepth)
	}
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
			errs[si] = p.runStage(si, nBatches, in, out)
		}(si)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunSerial pushes the same batches through the same stages one batch at a
// time on the calling goroutine: batch b leaves the last stage before batch
// b+1 enters the first, so no two stages ever run concurrently and Workers
// is ignored. It is Run without the overlap — the paper's §4.2 ablation, and
// the order a distributed rank runs its batches in. enter, when non-nil, is
// called at each batch boundary before any stage (or span) of that batch; its
// error ends the run unwrapped. A stage error ends the run at once.
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

// runStage executes one stage until its input is exhausted. in is nil for
// the first stage, which generates batches 0..nBatches−1 itself; out is
// nil for the last stage.
func (p *Pipeline) runStage(si, nBatches int, in <-chan item, out chan<- item) error {
	stage := p.stages[si]
	if stage.Workers <= 1 {
		// Classic sequential stage: no dispatch/reorder machinery.
		var stageErr error
		process := func(it item) {
			if stageErr != nil {
				return // draining after failure
			}
			payload, err := p.invoke(stage, it)
			if err != nil {
				stageErr = err
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

	// Elastic stage: a dispatcher tags arriving items with sequence
	// numbers, Workers goroutines run the stage function concurrently,
	// and the emitter below releases results to the output queue in
	// sequence order (the reorder buffer). Dispatch credits bound how far
	// the stage runs ahead of its in-order output: the dispatcher spends
	// one credit per item it takes from its input and the emitter returns
	// one per sequence number it retires, so taken − emitted ≤ bound at
	// all times. The pending map below therefore never holds more than
	// bound items, and a batch enters the stage only after every batch
	// ≤ seq − bound has completed — the invariant behind
	// UpstreamCompletionLag, which external resource schedules (the core
	// projection ring) rely on.
	state := &stageState{}
	work := make(chan seqItem)
	results := make(chan seqItem, stage.Workers)
	bound := InFlightBound(p.QueueDepth, stage.Workers)
	credits := make(chan struct{}, bound)
	for i := 0; i < bound; i++ {
		credits <- struct{}{}
	}
	// Telemetry handles resolved once per stage run; nil handles make the
	// per-batch instrumentation a single pointer check, and the clock is
	// only read when a registry is attached.
	var dispatched, creditWaitNs *telemetry.Counter
	if p.Telemetry != nil {
		dispatched = p.Telemetry.Counter("pipeline." + stage.Name + ".dispatched")
		creditWaitNs = p.Telemetry.Counter("pipeline." + stage.Name + ".credit_wait_ns")
	}
	takeCredit := func() {
		if creditWaitNs == nil {
			<-credits
			return
		}
		select {
		case <-credits: // credit already free: no wait to account
		default:
			t0 := time.Now()
			<-credits
			creditWaitNs.Add(int64(time.Since(t0)))
		}
	}

	var workerWG sync.WaitGroup
	for w := 0; w < stage.Workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for wi := range work {
				if state.failed.Load() {
					wi.ok = false // drain without running the stage
					results <- wi
					continue
				}
				payload, err := p.invoke(stage, wi.item)
				if err != nil {
					state.fail(err)
					wi.ok = false
				} else {
					wi.payload = payload
					wi.ok = true
				}
				results <- wi
			}
		}()
	}
	go func() { // dispatcher
		defer close(work)
		if in == nil {
			for b := 0; b < nBatches; b++ {
				takeCredit() // wait until batch b−bound has been emitted
				work <- seqItem{seq: b, item: item{batch: b}}
				dispatched.Inc()
			}
			return
		}
		// The credit is acquired BEFORE taking from the input queue:
		// batches the stage is not yet allowed to start stay in the
		// bounded queue, exerting backpressure on the upstream stage.
		// UpstreamCompletionLag's accounting depends on this order.
		seq := 0
		for {
			takeCredit() // wait until batch seq−bound has been emitted
			it, ok := <-in
			if !ok {
				// The credit taken for the batch that never arrived is
				// deliberately not counted as dispatched.
				return
			}
			work <- seqItem{seq: seq, item: it}
			dispatched.Inc()
			seq++
		}
	}()
	go func() {
		workerWG.Wait()
		close(results)
	}()

	// Emitter / reorder buffer: forward results in sequence order,
	// returning one dispatch credit per sequence number retired (the
	// credit channel's capacity is bound and retired ≤ dispatched, so the
	// send never blocks). The first dropped sequence ends the emitted
	// stream, so downstream sees a clean contiguous prefix of the input
	// order, exactly like a sequential stage that stops forwarding at its
	// first error; credits keep flowing after the stop so the dispatcher
	// drains upstream without deadlock.
	pending := map[int]seqItem{}
	next := 0
	stopped := false
	for r := range results {
		pending[r.seq] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			credits <- struct{}{}
			if !cur.ok {
				stopped = true
			}
			if cur.ok && !stopped && out != nil {
				out <- cur.item
			}
		}
	}
	state.mu.Lock()
	defer state.mu.Unlock()
	return state.err
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
