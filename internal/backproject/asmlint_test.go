package backproject

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A legacy-SSE instruction between the first YMM or ZMM write and
// VZEROUPPER costs a state transition on every execution; one XMM write of
// that kind made this kernel's whole reconstruction five times slower, and
// a routine that returns with dirty upper halves does the same to the SSE
// code the Go compiler emits after it. In every assembly file of the
// module, inside any TEXT block that touches a Y or a Z register (or one of
// X16–X31, which only AVX-512 encodes) — and in any macro that does, since
// a macro's instructions land in the block that expands it — every
// instruction with an X, Y or Z operand must therefore be VEX- or
// EVEX-encoded — its mnemonic starts with V — and every RET must follow a
// VZEROUPPER. A macro call is not an instruction, whatever registers it
// passes. The scan is first shown planted sources, whose faults it must
// report and only those.
func TestAssemblyUsesVEXInsideYMMBlocks(t *testing.T) {
	const (
		addMacro = "#define ADDZ(a, b) \\\n\tVADDPS a, b, b\n\n"
		head     = "TEXT ·f(SB), NOSPLIT, $0-8\n"
		tail     = "\tVZEROUPPER\n\tRET\n"
	)
	for _, tc := range []struct {
		name, src, fault string // fault is "" for a clean source
	}{
		{"ZMM function whose RET follows no VZEROUPPER", head + "\tVADDPS Z1, Z2, Z3\n\tRET\n", "RET without VZEROUPPER"},
		{"macro called with ZMM arguments", addMacro + head + "\tADDZ(Z1, Z2)\n" + tail, ""},
		{"ADDPS in a macro body", "#define BAD(a) \\\n\tVADDPS Z1, Z2, a; \\\n\tADDPS X1, X2\n\n" + head + "\tBAD(Z3)\n" + tail, "BAD(a): legacy-SSE"},
		{"ADDPS in the block that calls a macro", addMacro + head + "\tADDZ(Z1, Z2)\n\tADDPS X1, X2\n" + tail, "·f(SB),: legacy-SSE"},
	} {
		got := wideBlockFaults(tc.src)
		if tc.fault == "" && len(got) != 0 || tc.fault != "" && (len(got) != 1 || !strings.Contains(got[0], tc.fault)) {
			t.Fatalf("%s: the scan reports %q, want one fault containing %q (none if empty)", tc.name, got, tc.fault)
		}
	}
	root, files := moduleAssembly(t)
	ymmFiles, zmmFiles := 0, 0
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "TEXT") {
			t.Errorf("%s: no TEXT block found", rel)
		}
		ymm, zmm := wideRegisters(string(src))
		if ymm {
			ymmFiles++
		}
		if zmm {
			zmmFiles++
		}
		for _, fault := range wideBlockFaults(string(src)) {
			t.Errorf("%s:%s", rel, fault)
		}
	}
	// The two kernels and the filter's butterflies at the least, one of
	// them in ZMM registers.
	if ymmFiles < 3 || zmmFiles < 1 {
		t.Fatalf("%d of %d assembly files have a YMM block and %d a ZMM one: the scan is not reading the vector routines", ymmFiles, len(files), zmmFiles)
	}
}

// moduleAssembly returns the module root and every assembly file under it.
func moduleAssembly(t *testing.T) (root string, files []string) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not two levels up: %v", err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".s") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return root, files
}

// The coordinate contract (simd.go) forbids fusing a product into the add
// or subtract it feeds, in both spellings, and so do the row filter's
// (internal/fft, internal/filter): a fused multiply-add rounds once where
// the contract rounds twice, so the bytes would depend on the spelling.
// make fuse-lint reads the compiled Go spellings; this reads the assembly,
// every file of the module, for any FMA3 mnemonic outside a comment. The
// one exemption is the benchmark's roofline probe, whose FMA chains measure
// the machine's peak and compute no byte of a reconstruction. The scan is
// first shown a planted VFMADD231PS, which it must flag.
func TestAssemblyHasNoFusedMultiplyAdd(t *testing.T) {
	planted := "\tVMULPS Y1, Y2, Y3 // VFMADD231PS in a comment is no instruction\n\tVFMADD231PS Y9, Y14, Y13\n"
	if got := fusedMultiplyAdds(planted); len(got) != 1 || got[0] != 2 {
		t.Fatalf("the scan flags lines %v of a source with one VFMADD231PS on line 2", got)
	}
	const peakProbe = "bench/probe_amd64.s"
	root, files := moduleAssembly(t)
	sawProbe := false
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		if filepath.ToSlash(rel) == peakProbe {
			sawProbe = true
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range fusedMultiplyAdds(string(src)) {
			t.Errorf("%s:%d: a fused multiply-add, which the coordinate contract forbids", rel, n)
		}
	}
	if !sawProbe {
		t.Errorf("%s is gone: drop its exemption", peakProbe)
	}
}

// fusedMultiplyAdds returns the line numbers of src that hold a fused
// multiply-add mnemonic (VFMADD*, VFMSUB*, VFNMADD*, VFNMSUB*) outside a
// comment.
func fusedMultiplyAdds(src string) []int {
	fma := regexp.MustCompile(`\bVFN?M(ADD|SUB)\w*`)
	var lines []int
	for n, raw := range strings.Split(src, "\n") {
		text, _, _ := strings.Cut(raw, "//")
		if fma.MatchString(text) {
			lines = append(lines, n+1)
		}
	}
	return lines
}

var (
	vecReg  = regexp.MustCompile(`\b[XYZ]([0-9]|[12][0-9]|3[01])\b`)
	ymmReg  = regexp.MustCompile(`\bY([0-9]|[12][0-9]|3[01])\b`)
	zmmReg  = regexp.MustCompile(`\b(Z([0-9]|[12][0-9]|3[01])|X(1[6-9]|2[0-9]|3[01]))\b`)
	wideReg = regexp.MustCompile(ymmReg.String() + "|" + zmmReg.String())
)

// wideRegisters reports whether src names a YMM register, and whether it
// names a ZMM one (or an XMM register only AVX-512 encodes), outside a
// comment.
func wideRegisters(src string) (ymm, zmm bool) {
	for _, raw := range strings.Split(src, "\n") {
		text, _, _ := strings.Cut(raw, "//")
		ymm = ymm || ymmReg.MatchString(text)
		zmm = zmm || zmmReg.MatchString(text)
	}
	return ymm, zmm
}

// wideBlockFaults returns, as "line: block: fault", every legacy-SSE
// instruction and every RET without a VZEROUPPER before it inside a TEXT
// block or macro of src that touches a YMM or ZMM register. A call of a
// macro src defines is skipped: the macro's body is scanned as a block.
func wideBlockFaults(src string) []string {
	type line struct {
		n    int
		text string
	}
	blocks := map[string][]line{}
	macros := map[string]bool{}
	var block string
	for n, raw := range strings.Split(src, "\n") {
		text, _, _ := strings.Cut(raw, "//")
		text = strings.TrimRight(text, "\\; \t") // a macro body's separator and continuation
		fields := strings.Fields(text)
		switch {
		case len(fields) == 0:
		case fields[0] == "TEXT" || fields[0] == "#define" && len(fields) > 1:
			block = fields[1]
			if fields[0] == "#define" {
				name, _, _ := strings.Cut(block, "(")
				macros[name] = true
			}
		case block != "" && !strings.HasSuffix(fields[0], ":"):
			blocks[block] = append(blocks[block], line{n + 1, strings.TrimSpace(text)})
		}
	}
	var faults []string
	for block, lines := range blocks {
		wide := false
		for _, l := range lines {
			wide = wide || wideReg.MatchString(l.text)
		}
		if !wide {
			continue
		}
		for i, l := range lines {
			mnemonic, operands, _ := strings.Cut(l.text, " ")
			// A macro call is no instruction: its body is a block of
			// its own, scanned as such.
			if name, _, _ := strings.Cut(mnemonic, "("); macros[name] {
				continue
			}
			if vecReg.MatchString(operands) && !strings.HasPrefix(mnemonic, "V") {
				faults = append(faults, fmt.Sprintf("%d: %s: legacy-SSE encoding %q in a block that uses YMM or ZMM registers", l.n, block, l.text))
			}
			if mnemonic == "RET" && (i == 0 || lines[i-1].text != "VZEROUPPER") {
				faults = append(faults, fmt.Sprintf("%d: %s: RET without VZEROUPPER in a block that uses YMM or ZMM registers", l.n, block))
			}
		}
	}
	return faults
}
