package core

// CheckpointLog records durably stored slabs and answers whether one is
// already on disk. storage.Journal satisfies it; core depends only on
// this interface so the reconstruction layer stays free of I/O imports.
//
// Slabs are keyed by their output identity — the first slice z0 of the
// slab's Z window — not by the (group, batch) coordinates of whichever
// world shape produced them. z0 names the bytes in the output file, so a
// journal written by an (Ng, Nr) run can be resumed by a shrunk
// (Ng', Nr') run with the same slab layout (see Plan.Fingerprint),
// skipping exactly the slabs that are already durable. The batch argument
// of Record is the recording plan's batch ordinal, carried for debugging
// only.
//
// Resume semantics: pass a log that already holds entries (a reopened
// journal) and the plan replays skipping every recorded slab. Because
// batches are independent, the reduction order is fixed, and slabs land
// at fixed offsets, the resumed volume is bit-identical to one produced
// by an uninterrupted run.
type CheckpointLog interface {
	Done(z0 int) bool
	Record(z0, batch int) error
}
