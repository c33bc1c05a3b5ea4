package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distfdk/internal/volume"
)

// testFP is the plan fingerprint the journal tests stamp and resume with.
const testFP = "plan1-4x3x12-s4-deadbeef00000000"

func TestJournalRecordAndReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recon.journal")

	j, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if j.Fingerprint() != testFP {
		t.Fatalf("Fingerprint = %q, want %q", j.Fingerprint(), testFP)
	}
	// (z0, batch) pairs: identity is z0, batch is informational.
	pairs := [][2]int{{0, 0}, {4, 1}, {12, 0}, {20, 7}}
	for _, p := range pairs {
		if err := j.Record(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotent re-record must not duplicate entries.
	if err := j.Record(4, 1); err != nil {
		t.Fatal(err)
	}
	if j.Len() != len(pairs) {
		t.Fatalf("Len = %d, want %d", j.Len(), len(pairs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	for _, p := range pairs {
		if !j2.Done(p[0]) {
			t.Fatalf("z0=%d lost across reopen", p[0])
		}
	}
	if j2.Done(9) {
		t.Fatal("phantom entry after reopen")
	}
	if j2.Dropped() != 0 {
		t.Fatalf("Dropped = %d on a clean journal", j2.Dropped())
	}
	// Appends after a reopen must still land on clean line boundaries.
	if err := j2.Record(8, 5); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if !j3.Done(8) || j3.Len() != len(pairs)+1 {
		t.Fatalf("post-reopen append lost: Len=%d", j3.Len())
	}
}

// A crash mid-append leaves a torn trailing line; reopening must drop
// exactly that line, keep the complete prefix, and leave the file ready
// for clean appends.
func TestJournalTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recon.journal")

	j, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(4, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("slab 8 "); err != nil { // torn: no newline
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("torn tail must repair, not fail: %v", err)
	}
	if j2.Len() != 2 || !j2.Done(0) || !j2.Done(4) {
		t.Fatalf("complete prefix lost: Len=%d", j2.Len())
	}
	if j2.Done(8) {
		t.Fatal("torn entry must not count as done")
	}
	if err := j2.Record(8, 2); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 || !j3.Done(8) {
		t.Fatalf("append after repair corrupted the journal: Len=%d", j3.Len())
	}
}

// A crash during creation can leave a torn header (no complete first
// line); reopening must rewrite it and start empty.
func TestJournalTornHeaderRepair(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recon.journal")
	if err := os.WriteFile(path, []byte("distfdk-jour"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("torn header must repair, not fail: %v", err)
	}
	if j.Len() != 0 {
		t.Fatalf("Len = %d after torn-header repair, want 0", j.Len())
	}
	if err := j.Record(0, 0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Done(0) {
		t.Fatal("record lost after torn-header repair")
	}
}

// A corrupt interior record — complete line, failed checksum — must be
// dropped with the rest of the journal intact: the slab it named is
// simply redone. Trusting it could skip a slab whose bytes never landed.
func TestJournalDropsCorruptInteriorRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recon.journal")

	j, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(i*4, i); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit of the middle record's z0 ("slab 4 1 ..."): the line
	// stays parseable but its checksum no longer matches.
	mut := strings.Replace(string(data), "slab 4 1", "slab 6 1", 1)
	if mut == string(data) {
		t.Fatal("test setup: middle record not found")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("corrupt interior record must be dropped, not fatal: %v", err)
	}
	defer j2.Close()
	if j2.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", j2.Dropped())
	}
	if j2.Len() != 2 || !j2.Done(0) || !j2.Done(8) {
		t.Fatalf("intact records lost: Len=%d", j2.Len())
	}
	if j2.Done(4) || j2.Done(6) {
		t.Fatal("corrupt record must not count as done under either key")
	}
}

// Resuming against a journal stamped by a different plan must fail with
// the typed mismatch error, never silently skip wrong slabs.
func TestJournalPlanMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recon.journal")

	j, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, 0); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, err = OpenJournal(path, "plan1-9x9x9-s9-0123456789abcdef")
	if err == nil {
		t.Fatal("expected plan-mismatch error")
	}
	if !errors.Is(err, ErrPlanMismatch) {
		t.Fatalf("error %v does not match ErrPlanMismatch", err)
	}
	var pm *PlanMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("error %T is not *PlanMismatchError", err)
	}
	if pm.JournalPlan != testFP || pm.RunPlan == testFP {
		t.Fatalf("mismatch fingerprints wrong: %+v", pm)
	}

	// The original fingerprint must still resume.
	j2, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatalf("matching fingerprint refused: %v", err)
	}
	j2.Close()
}

// A complete line that is not a journal header means the file is
// something else entirely — refuse rather than resume from garbage. A v1
// journal (bare slab lines, no header) gets a specific refusal.
func TestJournalRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(path, []byte("hello world\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, testFP); err == nil {
		t.Fatal("expected bad-header error for a non-journal file")
	}

	legacy := filepath.Join(dir, "legacy.journal")
	if err := os.WriteFile(legacy, []byte("slab 0 0\nslab 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(legacy, testFP)
	if err == nil || !strings.Contains(err.Error(), "legacy") {
		t.Fatalf("expected legacy-format refusal, got %v", err)
	}
}

func TestJournalRemove(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recon.journal")
	j, err := OpenJournal(path, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(4, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("journal still on disk: %v", err)
	}
}

func TestJournalRejectsBadFingerprint(t *testing.T) {
	dir := t.TempDir()
	for _, fp := range []string{"", "has space", "has\nnewline"} {
		if _, err := OpenJournal(filepath.Join(dir, "j"), fp); err == nil {
			t.Fatalf("fingerprint %q must be rejected", fp)
		}
	}
}

// WriteStack must never leave a readable-but-truncated container at the
// destination: the temp file carries the bytes until the atomic rename.
func TestWriteStackIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "proj.fbp")
	if err := WriteStack(path, makeStack(3, 2, 4, 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	src, err := OpenStack(path)
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
}

func TestOpenStackRejectsCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "proj.fbp")
	if err := WriteStack(path, makeStack(3, 2, 4, 12)); err != nil {
		t.Fatal(err)
	}

	// Truncated samples: size no longer matches the header.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.fbp")
	if err := os.WriteFile(short, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStack(short); err == nil {
		t.Fatal("expected size-mismatch error for a truncated stack")
	}

	// Non-positive dimension in the header.
	bad := make([]byte, len(data))
	copy(bad, data)
	bad[4], bad[5], bad[6], bad[7] = 0, 0, 0, 0 // nu = 0
	zero := filepath.Join(dir, "zero.fbp")
	if err := os.WriteFile(zero, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStack(zero); err == nil {
		t.Fatal("expected non-positive-dims error")
	}
}

// The slab writer's crash-consistency contract: no final file until
// Close, ClosePartial keeps the partial, ResumeSlabWriter picks it up and
// the finished volume matches an uninterrupted run byte for byte. The
// writer holds a window: slabs arrive at global slices and land past its
// origin, and a resume must name the same window.
func TestSlabWriterPartialAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.fbk")
	win := volume.Header{NX: 4, NY: 3, NZ: 12, Z0: 20}

	writeSlab := func(w *SlabWriter, z0 int) {
		t.Helper()
		slab, _ := volume.NewSlab(4, 3, 4, z0)
		for i := range slab.Data {
			slab.Data[i] = float32(z0*1000 + i)
		}
		if err := w.WriteSlab(slab); err != nil {
			t.Fatal(err)
		}
	}

	w, err := CreateSlabWriter(path, win)
	if err != nil {
		t.Fatal(err)
	}
	writeSlab(w, 20)
	writeSlab(w, 28)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path exists before Close: %v", err)
	}
	if err := w.ClosePartial(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("ClosePartial must not promote the file")
	}
	if _, err := os.Stat(path + PartialSuffix); err != nil {
		t.Fatalf("partial file missing: %v", err)
	}

	// Resume into another window must refuse: other dimensions, another
	// origin.
	for _, other := range []volume.Header{{NX: 4, NY: 3, NZ: 10, Z0: 20}, {NX: 4, NY: 3, NZ: 12}} {
		if _, err := ResumeSlabWriter(path, other); err == nil {
			t.Fatalf("resume of the %v partial as %v succeeded", win, other)
		}
	}

	w2, err := ResumeSlabWriter(path, win)
	if err != nil {
		t.Fatal(err)
	}
	writeSlab(w2, 24)
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + PartialSuffix); !os.IsNotExist(err) {
		t.Fatal("partial file left behind after promote")
	}

	got, err := volume.LoadRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header() != win {
		t.Fatalf("promoted volume is %v, want %v", got.Header(), win)
	}
	for _, z0 := range []int{20, 24, 28} {
		for i := 0; i < 4*3*4; i++ {
			want := float32(z0*1000 + i)
			if got.Data[(z0-win.Z0)*4*3+i] != want {
				t.Fatalf("slab z0=%d sample %d = %g, want %g", z0, i, got.Data[(z0-win.Z0)*4*3+i], want)
			}
		}
	}
}

// A partial whose header or size is not a volume's is refused with
// volume.ReadHeader's typed error, before any slab is written into it.
func TestResumeSlabWriterChecksHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.fbk")
	win := volume.Header{NX: 4, NY: 4, NZ: 4, Z0: 2}
	w, err := CreateSlabWriter(path, win)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ClosePartial(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path+PartialSuffix, win.FileBytes()-4); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSlabWriter(path, win); !errors.Is(err, volume.ErrBadHeader) {
		t.Errorf("resume of a truncated partial: %v, want volume.ErrBadHeader", err)
	}
	if err := os.WriteFile(path+PartialSuffix, make([]byte, win.FileBytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSlabWriter(path, win); !errors.Is(err, volume.ErrBadHeader) {
		t.Errorf("resume of a partial without magic: %v, want volume.ErrBadHeader", err)
	}
}

// Resuming a path with no partial on disk must fail loudly, not create an
// empty volume.
func TestResumeSlabWriterMissingPartial(t *testing.T) {
	dir := t.TempDir()
	if _, err := ResumeSlabWriter(filepath.Join(dir, "vol.fbk"), volume.Header{NX: 4, NY: 4, NZ: 4}); err == nil {
		t.Fatal("expected missing-partial error")
	}
}
