package backproject

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A legacy-SSE instruction between the first YMM write and VZEROUPPER costs
// a state transition on every execution; one XMM write of that kind made
// this kernel's whole reconstruction five times slower, and a routine that
// returns with dirty upper halves does the same to the SSE code the Go
// compiler emits after it. In every assembly file of the module, inside any
// TEXT block that touches a Y register — and in any macro that does, since a
// macro's instructions land in the block that expands it — every instruction
// with an X or Y operand must therefore be VEX-encoded — its mnemonic starts
// with V — and every RET must follow a VZEROUPPER.
func TestAssemblyUsesVEXInsideYMMBlocks(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not two levels up: %v", err)
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".s") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ymmFiles := 0
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		if lintAssembly(t, rel, path) {
			ymmFiles++
		}
	}
	// The kernel and the filter's butterflies at the least.
	if ymmFiles < 2 {
		t.Fatalf("%d of %d assembly files have a YMM block: the scan is not reading the vector routines", ymmFiles, len(files))
	}
}

// lintAssembly checks one file and reports whether it has a YMM block.
func lintAssembly(t *testing.T, name, path string) bool {
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	vecReg := regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	ymmReg := regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	type line struct {
		n    int
		text string
	}
	blocks := map[string][]line{}
	var block string
	for n, raw := range strings.Split(string(src), "\n") {
		text, _, _ := strings.Cut(raw, "//")
		text = strings.TrimRight(text, "\\; \t") // a macro body's separator and continuation
		fields := strings.Fields(text)
		switch {
		case len(fields) == 0:
		case fields[0] == "TEXT" || fields[0] == "#define" && len(fields) > 1:
			block = fields[1]
		case block != "" && !strings.HasSuffix(fields[0], ":"):
			blocks[block] = append(blocks[block], line{n + 1, strings.TrimSpace(text)})
		}
	}
	if len(blocks) == 0 {
		t.Errorf("%s: no TEXT block found", name)
	}
	checked := 0
	for block, lines := range blocks {
		usesYMM := false
		for _, l := range lines {
			usesYMM = usesYMM || ymmReg.MatchString(l.text)
		}
		if !usesYMM {
			continue
		}
		for i, l := range lines {
			mnemonic, operands, _ := strings.Cut(l.text, " ")
			if vecReg.MatchString(operands) {
				checked++
				if !strings.HasPrefix(mnemonic, "V") {
					t.Errorf("%s:%d: %s: legacy-SSE encoding %q in a block that uses YMM registers", name, l.n, block, l.text)
				}
			}
			if mnemonic == "RET" && (i == 0 || lines[i-1].text != "VZEROUPPER") {
				t.Errorf("%s:%d: %s: RET without VZEROUPPER in a block that uses YMM registers", name, l.n, block)
			}
		}
	}
	return checked > 0
}
