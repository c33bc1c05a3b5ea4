package backproject

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// A legacy-SSE instruction between the first YMM write and VZEROUPPER costs
// a state transition on every execution; one XMM write of that kind made
// this kernel's whole reconstruction five times slower. Inside any TEXT
// block that touches a Y register, every instruction with an X or Y operand
// must therefore be VEX-encoded: its mnemonic starts with V.
func TestAssemblyUsesVEXInsideYMMBlocks(t *testing.T) {
	src, err := os.ReadFile("simd_amd64.s")
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
	var name string
	for n, raw := range strings.Split(string(src), "\n") {
		text, _, _ := strings.Cut(raw, "//")
		fields := strings.Fields(text)
		switch {
		case len(fields) == 0:
		case fields[0] == "TEXT":
			name = fields[1]
		case name != "" && !strings.HasSuffix(fields[0], ":"):
			blocks[name] = append(blocks[name], line{n + 1, strings.TrimSpace(text)})
		}
	}
	if len(blocks) == 0 {
		t.Fatal("no TEXT block found in simd_amd64.s")
	}
	checked := 0
	for name, lines := range blocks {
		usesYMM := false
		for _, l := range lines {
			usesYMM = usesYMM || ymmReg.MatchString(l.text)
		}
		if !usesYMM {
			continue
		}
		for _, l := range lines {
			mnemonic, operands, _ := strings.Cut(l.text, " ")
			if vecReg.MatchString(operands) {
				checked++
				if !strings.HasPrefix(mnemonic, "V") {
					t.Errorf("simd_amd64.s:%d: %s: legacy-SSE encoding %q in a block that uses YMM registers", l.n, name, l.text)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no vector instruction found in a YMM block: the scan is not reading the kernel")
	}
}
