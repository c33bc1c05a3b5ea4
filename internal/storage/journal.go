package storage

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"strings"
	"sync"
	"time"
)

// journalVersion is the on-disk format revision. v2 re-keyed records from
// (group, batch) to the slab's output identity z0 and added the plan
// fingerprint header plus per-record CRC32 checksums; v1 journals (bare
// `slab <g> <c>` lines, no header) are refused rather than misread.
const journalVersion = 2

// journalMagic is the first token of the header line.
const journalMagic = "distfdk-journal"

// ErrPlanMismatch is the sentinel matched (via errors.Is) by journals that
// belong to a different reconstruction plan than the one trying to resume.
var ErrPlanMismatch = errors.New("storage: journal belongs to a different plan")

// ErrJournalHeader is matched (errors.Is) when a journal's first line is not
// a header this version reads: a legacy v1 journal, another format version,
// or no journal at all. Nothing after such a line is interpreted.
var ErrJournalHeader = errors.New("storage: unreadable journal header")

// PlanMismatchError reports a resume attempt against a journal stamped with
// a different plan fingerprint. Resuming anyway would skip slabs whose
// geometry does not line up with the new plan's, silently corrupting the
// output, so OpenJournal refuses with this typed error instead.
type PlanMismatchError struct {
	Path        string
	JournalPlan string // fingerprint stamped in the journal header
	RunPlan     string // fingerprint of the plan attempting to resume
}

func (e *PlanMismatchError) Error() string {
	return fmt.Sprintf("storage: journal %s was written by plan %s, cannot resume plan %s (delete the journal and partial output to start over)",
		e.Path, e.JournalPlan, e.RunPlan)
}

// Is lets errors.Is(err, ErrPlanMismatch) match without the caller needing
// the concrete type.
func (e *PlanMismatchError) Is(target error) bool { return target == ErrPlanMismatch }

// Journal is the crash-safe checkpoint log of a reconstruction: one
// appended, fsynced line per output slab durably stored. It lives next to
// the partial output volume; a killed run reopens it and resumes the plan
// skipping every journaled slab, which — because batches are independent
// and the reduction order is fixed — yields a volume bit-identical to an
// uninterrupted run.
//
// Records are keyed by the slab's first output slice z0 rather than the
// (group, batch) coordinates of whichever world shape produced them: z0
// names the bytes on disk, so a run resumed at a different (Ng, Nr) —
// a supervised shrink after rank loss — skips exactly the slabs that are
// already durable and nothing else. The header stamps the plan fingerprint
// (geometry dims plus slab layout); opening with a mismatched fingerprint
// fails with *PlanMismatchError.
//
// The format is line-oriented text: a header line
// `distfdk-journal 2 <fingerprint>\n` followed by records
// `slab <z0> <batch> <crc32>\n`, each written with a single write syscall
// and fsynced before Record returns, so an entry is either durably
// complete or absent. The CRC32 (IEEE, over `slab <z0> <batch>`) guards
// interior records against bit rot and partial overwrites: a complete line
// that fails its checksum is dropped with a logged warning — the slab it
// named is simply redone, which is idempotent because slabs write to fixed
// offsets. A crash mid-append can leave one torn trailing line; replay
// detects it and truncates it away.
type Journal struct {
	f           *os.File
	path        string
	fingerprint string

	mu      sync.Mutex
	done    map[int]int // z0 -> batch ordinal of the plan that recorded it
	dropped int

	// tel holds the checkpoint telemetry handles (see SetTelemetry).
	tel *journalTelemetry
}

// OpenJournal opens (or creates) the checkpoint journal at path for the
// plan identified by fingerprint (an opaque, space-free token — see
// core.Plan.Fingerprint). A fresh file is stamped with the fingerprint;
// reopening replays complete records, repairs a torn tail, drops
// corrupt interior records, and refuses with *PlanMismatchError when the
// stamped fingerprint differs from the caller's.
func OpenJournal(path, fingerprint string) (*Journal, error) {
	if fingerprint == "" || strings.ContainsAny(fingerprint, " \t\n") {
		return nil, fmt.Errorf("storage: journal fingerprint %q must be a non-empty space-free token", fingerprint)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, fingerprint: fingerprint, done: map[int]int{}}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// headerLine renders the v2 header for a fingerprint.
func headerLine(fingerprint string) string {
	return fmt.Sprintf("%s %d %s\n", journalMagic, journalVersion, fingerprint)
}

// recordBody is the checksummed portion of a record line.
func recordBody(z0, batch int) string { return fmt.Sprintf("slab %d %d", z0, batch) }

// recordLine renders a full record: body plus its CRC32 (IEEE) in fixed
// -width hex. Replay re-renders the line from the parsed fields and demands
// byte equality, so any single-character corruption — in the key, the
// batch, or the checksum itself — fails verification.
func recordLine(z0, batch int) string {
	body := recordBody(z0, batch)
	return fmt.Sprintf("%s %08x\n", body, crc32.ChecksumIEEE([]byte(body)))
}

// parseRecord validates one complete journal line. ok is false for any
// line that is not byte-identical to a canonical record — wrong format,
// failed checksum, trailing junk.
func parseRecord(line string) (z0, batch int, ok bool) {
	var crc uint32
	if _, err := fmt.Sscanf(strings.TrimSuffix(line, "\n"), "slab %d %d %x", &z0, &batch, &crc); err != nil {
		return 0, 0, false
	}
	return z0, batch, line == recordLine(z0, batch)
}

// writeHeader stamps a fresh (or repaired-empty) journal.
func (j *Journal) writeHeader() error {
	if _, err := j.f.WriteString(headerLine(j.fingerprint)); err != nil {
		return fmt.Errorf("storage: journal %s: write header: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("storage: journal %s: sync header: %w", j.path, err)
	}
	return nil
}

// replay validates the header, loads the completed set, drops corrupt
// interior records, and truncates a torn trailing entry so subsequent
// appends start on a clean line boundary.
func (j *Journal) replay() error {
	info, err := j.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		return j.writeHeader()
	}
	r := bufio.NewReader(j.f)
	header, err := r.ReadString('\n')
	if err != nil {
		// No complete first line: the creating run died mid-header, so no
		// record can follow. Rewrite the header and start clean.
		if terr := j.f.Truncate(0); terr != nil {
			return fmt.Errorf("storage: journal %s: repair torn header: %w", j.path, terr)
		}
		if _, serr := j.f.Seek(0, 0); serr != nil {
			return serr
		}
		return j.writeHeader()
	}
	var ver int
	var fp string
	if _, perr := fmt.Sscanf(strings.TrimSpace(header), journalMagic+" %d %s", &ver, &fp); perr != nil {
		if strings.HasPrefix(header, "slab ") {
			return fmt.Errorf("%w: journal %s: legacy v1 journal (no plan fingerprint); delete it and the partial output, then restart", ErrJournalHeader, j.path)
		}
		return fmt.Errorf("%w: journal %s: bad header %q", ErrJournalHeader, j.path, strings.TrimSpace(header))
	}
	if ver != journalVersion {
		return fmt.Errorf("%w: journal %s: unsupported version %d (want %d)", ErrJournalHeader, j.path, ver, journalVersion)
	}
	if fp != j.fingerprint {
		return &PlanMismatchError{Path: j.path, JournalPlan: fp, RunPlan: j.fingerprint}
	}
	valid := int64(len(header))
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			// No trailing newline: a torn append; drop it.
			break
		}
		if z0, batch, ok := parseRecord(line); ok {
			j.done[z0] = batch
		} else {
			// A complete line that fails validation is corruption, not a
			// torn write. The slab it named will be redone — idempotent,
			// since slabs land at fixed offsets — so dropping it is safe
			// where trusting it would not be.
			j.dropped++
			log.Printf("storage: journal %s: dropping corrupt record %q (slab will be redone)", j.path, strings.TrimSpace(line))
		}
		valid += int64(len(line))
	}
	if valid < info.Size() {
		if err := j.f.Truncate(valid); err != nil {
			return fmt.Errorf("storage: journal %s: repair torn tail: %w", j.path, err)
		}
	}
	if _, err := j.f.Seek(valid, 0); err != nil {
		return err
	}
	return nil
}

// Fingerprint returns the plan fingerprint the journal is stamped with.
func (j *Journal) Fingerprint() string { return j.fingerprint }

// Done reports whether the slab starting at output slice z0 is journaled
// as durably stored.
func (j *Journal) Done(z0 int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.done[z0]
	return ok
}

// Len returns the number of journaled slabs.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Dropped returns how many corrupt interior records replay discarded when
// the journal was opened.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Record durably journals the slab starting at output slice z0: one
// write, one fsync. batch is the recording plan's batch ordinal, kept in
// the record for post-mortem debugging only — identity is z0. Recording an
// already-journaled slab is a no-op, so retried stores stay idempotent.
// Callers must persist the slab data itself (WriteSlab + Sync) before
// recording, or a crash between the two could journal a slab whose bytes
// never reached disk.
func (j *Journal) Record(z0, batch int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.done[z0]; ok {
		return nil
	}
	if _, err := j.f.WriteString(recordLine(z0, batch)); err != nil {
		return fmt.Errorf("storage: journal append: %w", err)
	}
	var t0 time.Time
	if j.tel != nil {
		t0 = time.Now()
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("storage: journal sync: %w", err)
	}
	if t := j.tel; t != nil {
		t.records.Inc()
		t.syncNs.Add(int64(time.Since(t0)))
	}
	j.done[z0] = batch
	return nil
}

// Close releases the journal file; the entries stay on disk for resume.
func (j *Journal) Close() error { return j.f.Close() }

// Remove deletes the journal from disk — called after the output volume
// has been promoted to its final path, when there is nothing left to
// resume.
func (j *Journal) Remove() error {
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
