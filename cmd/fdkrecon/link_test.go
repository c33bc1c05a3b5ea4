package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fdkrecon needs two functions of internal/experiments (BuildScenario and
// ScaledSystem, for -scenario inputs) and must link no experiment: each one
// it carries makes the benchmarked binary larger and moves its layout when
// an experiment is edited. The command is built as a user builds it and its
// symbol table read with go tool nm; a Fig*, Table* or Ablation* function
// of the package there fails the test. The two functions it keeps must be
// listed, or the scan is not reading the binary's symbols.
func TestBinaryLinksNoExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	exe := filepath.Join(t.TempDir(), "fdkrecon")
	if out, err := exec.Command(gotool, "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(gotool, "tool", "nm", exe).Output()
	if err != nil {
		t.Fatalf("go tool nm: %v", err)
	}
	nm := string(out)
	for _, keep := range []string{"experiments.BuildScenario", "experiments.ScaledSystem"} {
		if !strings.Contains(nm, " distfdk/internal/"+keep+"\n") {
			t.Fatalf("go tool nm does not list %s, which fdkrecon calls", keep)
		}
	}
	runner := regexp.MustCompile(`(?m) distfdk/internal/experiments\.(Fig|Table|Ablation)\S*$`)
	if found := runner.FindAllString(nm, -1); len(found) > 0 {
		t.Fatalf("fdkrecon links %d experiment functions, e.g.%s", len(found), found[0])
	}
}

// fdkrecon serves nothing and resolves no name: it reaches its workers
// through nettrans's syscall sockets. Package net links the resolver and
// cgo, which makes the binary dynamically linked and costs each process
// about 1.5 ms before main; net/http (once pulled in for a profiling
// endpoint) doubles the package count. One stray import brings the cost
// back and no benchmark row names the cause, so the dependency list is
// held here.
func TestBinaryLinksNoNetworkStack(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(gotool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "distfdk/internal/mpi/nettrans") {
		t.Fatalf("go list -deps does not list nettrans, which fdkrecon imports:\n%s", out)
	}
	for _, pkg := range []string{"runtime/cgo", "net", "net/http", "crypto/tls"} {
		if slices.Contains(deps, pkg) {
			t.Errorf("fdkrecon links %s", pkg)
		}
	}
}
