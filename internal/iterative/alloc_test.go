package iterative

import (
	"fmt"
	"testing"

	"distfdk/internal/alloctest"
	"distfdk/internal/phantom"
)

// solveFunc returns a solve of the package's test system by the named
// entry point ("sirt" or "mlem"), as its ordered-subsets variant on one
// worker.
func solveFunc(t testing.TB, name string) func(iters int) error {
	sys := testSystem()
	st := measuredStack(t, sys, phantom.SheppLogan())
	run := Reconstruct
	if name == "mlem" {
		run = ReconstructMLEM
	}
	return func(iters int) error {
		_, err := run(sys, st, Options{Iterations: iters, Subsets: 4, Workers: 1})
		return err
	}
}

// An iteration reuses what the solve set up: a 4-iteration solve allocates
// less than one volume per extra iteration over a 1-iteration solve.
func TestSolveAllocationsFlatInIterations(t *testing.T) {
	sys := testSystem()
	volBytes := int64(sys.NX * sys.NY * sys.NZ * 4)
	for _, name := range []string{"sirt", "mlem"} {
		solve := solveFunc(t, name)
		var err1, err4 error
		one := alloctest.AllocatedBy(func() { err1 = solve(1) })
		four := alloctest.AllocatedBy(func() { err4 = solve(4) })
		if err1 != nil || err4 != nil {
			t.Fatal(err1, err4)
		}
		perIter := (int64(four) - int64(one)) / 3
		t.Logf("%s: %d B at 1 iteration, %d B at 4: %d B per extra iteration (a volume is %d B)", name, one, four, perIter, volBytes)
		if perIter >= volBytes {
			t.Errorf("%s allocates %d B per extra iteration, not less than a %d B volume", name, perIter, volBytes)
		}
	}
}

// BenchmarkSolve times one whole solve at 1 and at 4 iterations: the
// difference of the two B/op over 3 is what an iteration allocates.
func BenchmarkSolve(b *testing.B) {
	for _, name := range []string{"sirt", "mlem"} {
		solve := solveFunc(b, name)
		for _, iters := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/iters=%d", name, iters), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := solve(iters); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
