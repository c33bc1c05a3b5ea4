package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// Mixed-collective stress: every rank runs the same randomised (but
// rank-agnostic) schedule of collectives with varying payload sizes. Any
// ordering or matching bug deadlocks or corrupts; the whole schedule runs
// once with the buffer arena on and once off, so recycled-scratch races
// (a buffer returned while a reader still holds it) surface under -race.
func TestCollectiveStress(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		t.Run(fmt.Sprintf("pooled=%v", pooled), func(t *testing.T) {
			prev := SetBufferPooling(pooled)
			defer SetBufferPooling(prev)
			runCollectiveStress(t)
		})
	}
}

func runCollectiveStress(t *testing.T) {
	const n = 6
	const rounds = 40
	// The schedule must be identical across ranks: derive it from a
	// shared seed before spawning.
	schedule := make([]int, rounds)
	sizes := make([]int, rounds)
	chunks := make([]int, rounds)
	rpns := make([]int, rounds)
	rng := rand.New(rand.NewSource(42))
	for i := range schedule {
		schedule[i] = rng.Intn(7)
		sizes[i] = 1 + rng.Intn(512)
		chunks[i] = 1 + rng.Intn(sizes[i]+16) // sometimes larger than the buffer
		rpns[i] = []int{1, 2, 3, 6}[rng.Intn(4)]
	}
	err := Run(n, func(c *Comm) error {
		for round, op := range schedule {
			buf := make([]float32, sizes[round])
			for i := range buf {
				buf[i] = float32(c.Rank() + round)
			}
			switch op {
			case 0:
				if err := c.Barrier(); err != nil {
					return err
				}
			case 1:
				if err := c.Bcast(round%n, buf); err != nil {
					return err
				}
				// After Bcast every rank holds the root's values.
				if buf[0] != float32(round%n+round) {
					return fmt.Errorf("round %d: bcast payload %g", round, buf[0])
				}
			case 2:
				if err := c.Reduce(round%n, buf); err != nil {
					return err
				}
				if c.Rank() == round%n {
					want := float32(n*(n-1)/2 + n*round)
					if buf[0] != want {
						return fmt.Errorf("round %d: reduce %g, want %g", round, buf[0], want)
					}
				}
			case 3:
				if err := c.Allreduce(buf); err != nil {
					return err
				}
				want := float32(n*(n-1)/2 + n*round)
				if buf[0] != want {
					return fmt.Errorf("round %d: allreduce %g, want %g", round, buf[0], want)
				}
			case 4:
				out, err := c.Gather(round%n, buf)
				if err != nil {
					return err
				}
				if c.Rank() == round%n {
					for r := 0; r < n; r++ {
						if out[r][0] != float32(r+round) {
							return fmt.Errorf("round %d: gather[%d] = %g", round, r, out[r][0])
						}
					}
				}
			case 5:
				if err := c.ReduceChunked(round%n, buf, chunks[round]); err != nil {
					return err
				}
				if c.Rank() == round%n {
					want := float32(n*(n-1)/2 + n*round)
					if buf[0] != want {
						return fmt.Errorf("round %d: chunked reduce %g, want %g", round, buf[0], want)
					}
				}
			case 6:
				// Root must be a node leader; 0 always is.
				if err := c.HierarchicalReduce(0, buf, rpns[round]); err != nil {
					return err
				}
				if c.Rank() == 0 {
					want := float32(n*(n-1)/2 + n*round)
					if buf[0] != want {
						return fmt.Errorf("round %d: hierarchical reduce %g, want %g", round, buf[0], want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Nested splits: split the world, then split the sub-communicators again,
// and verify collectives stay isolated at every level.
func TestNestedSplits(t *testing.T) {
	const n = 8
	err := Run(n, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank()) // pairs
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("pair size %d", quarter.Size())
		}
		buf := []float32{float32(c.Rank())}
		if err := quarter.Allreduce(buf); err != nil {
			return err
		}
		// Each pair sums two consecutive world ranks.
		base := c.Rank() / 2 * 2
		if want := float32(base + base + 1); buf[0] != want {
			return fmt.Errorf("rank %d pair sum %g, want %g", c.Rank(), buf[0], want)
		}
		// The intermediate communicator still works afterwards.
		buf2 := []float32{1}
		if err := half.Allreduce(buf2); err != nil {
			return err
		}
		if buf2[0] != 4 {
			return fmt.Errorf("half-world allreduce %g, want 4", buf2[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Many small point-to-point messages across all pairs, both directions,
// with tags distinguishing streams.
func TestAllPairsTraffic(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		// Everyone sends to everyone (two messages per pair).
		for dst := 0; dst < n; dst++ {
			if dst == c.Rank() {
				continue
			}
			for msg := 0; msg < 2; msg++ {
				if err := c.Send(dst, 100+msg, []float32{float32(c.Rank()*10 + msg)}); err != nil {
					return err
				}
			}
		}
		for src := 0; src < n; src++ {
			if src == c.Rank() {
				continue
			}
			for msg := 0; msg < 2; msg++ {
				data, err := c.Recv(src, 100+msg)
				if err != nil {
					return err
				}
				if data[0] != float32(src*10+msg) {
					return fmt.Errorf("from %d msg %d: got %g", src, msg, data[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
