package fault

// Phase names the three windows of a declarative chaos scenario. A
// schedule splits a run's batch axis into warmup (let the pipeline reach
// steady state), inject (the fault rules fire) and recovery (observe the
// system settle) — the structure every scenario in scenarios/ declares and
// cmd/slogate gates on. An operation's phase is the phase of the batch its
// stage of the rank program is serving: a load's the load stage's, a
// store's the store stage's, and every message operation's (send, recv and
// the wire frames below them) the reduce stage's. The stages run
// concurrently and the load stage runs batches ahead, so a receive is
// judged by the batch it reduces, not by how far ahead the loader has run;
// each stage sees its batches in order, so phase-scoped rules stay exactly
// as deterministic as the stage itself.
const (
	PhaseWarmup   = "warmup"
	PhaseInject   = "inject"
	PhaseRecovery = "recovery"
)

// PhaseSchedule cuts the batch axis [0, Nc) into the three phases:
// batches [0, WarmupBatches) are warmup, the next InjectBatches are
// inject, and everything after is recovery. InjectBatches <= 0 extends
// the inject window to the end of the run (no recovery phase).
type PhaseSchedule struct {
	WarmupBatches int
	InjectBatches int
}

// Phase returns the phase of a batch index under the schedule.
func (ps PhaseSchedule) Phase(batch int) string {
	if batch < ps.WarmupBatches {
		return PhaseWarmup
	}
	if ps.InjectBatches <= 0 || batch < ps.WarmupBatches+ps.InjectBatches {
		return PhaseInject
	}
	return PhaseRecovery
}

// SetPhaseSchedule arms the injector with a phase schedule. Rules carrying
// a Phase then fire only while the stage performing the operation serves a
// batch of that phase; rules with an empty Phase are unaffected. Must be
// called before the run starts — the schedule is read concurrently by
// every rank's hot path.
func (in *Injector) SetPhaseSchedule(ps PhaseSchedule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.phases = &ps
}

// PhaseSchedule returns the armed schedule, or nil.
func (in *Injector) PhaseSchedule() *PhaseSchedule {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.phases
}

// stageOf names the stage of the rank program that performs op: a load or
// a store its own stage, every message operation the reduce.
func stageOf(op string) string {
	if op == OpLoad || op == OpStore {
		return op
	}
	return "reduce"
}

// Serve records that rank's stage starts serving batch. The drivers call it
// before every stage invocation; BatchStart is the load stage's call. The
// record is a high-water mark per (rank, stage), so batches a supervised
// restart replays (indices restarting at zero on the shrunk world) never
// move a stage back through its phases. A nil injector is inert.
func (in *Injector) Serve(rank int, stage string, batch int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.serveLocked(rank, stage, batch)
}

func (in *Injector) serveLocked(rank int, stage string, batch int) {
	k := rankStage{rank, stage}
	in.serving[k] = max(in.serving[k], batch)
}

// PhaseOf returns the phase of the batch rank's stage is serving — batch
// 0's before the stage's first — or "" when no schedule is armed.
func (in *Injector) PhaseOf(rank int, stage string) string {
	if in == nil {
		return ""
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.phaseOfLocked(rank, stage)
}

func (in *Injector) phaseOfLocked(rank int, stage string) string {
	if in.phases == nil {
		return ""
	}
	return in.phases.Phase(in.serving[rankStage{rank, stage}])
}
