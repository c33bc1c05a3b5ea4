package mpi

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"distfdk/internal/alloctest"
)

// rankData generates a deterministic, awkwardly-rounded float32 vector for
// one rank — values chosen so float32 summation order matters (different
// groupings genuinely produce different bits for these inputs).
func rankData(rank, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(rank)*1_000_003 + 17))
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = (rng.Float32() - 0.5) * float32(int(1)<<(rank%7))
	}
	return buf
}

// runReduction executes one reduction variant over the given world size
// and returns root's result.
func runReduction(t *testing.T, n, root, elems int, reduce func(c *Comm, buf []float32) error) []float32 {
	t.Helper()
	out := make([]float32, elems)
	err := Run(n, func(c *Comm) error {
		buf := rankData(c.Rank(), elems)
		if err := reduce(c, buf); err != nil {
			return err
		}
		if c.Rank() == root {
			copy(out, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The reconstruction must stay deterministic regardless of which reduction
// path assembles the slabs: the flat one-chunk ReduceChunked, every other
// chunking of it, and HierarchicalReduce (power-of-two ranksPerNode dividing
// the world size) share one fixed per-element summation order and must
// agree bit for bit.
func TestReductionPathsBitIdentical(t *testing.T) {
	const elems = 257 // odd length: chunk boundaries land mid-buffer
	for _, n := range []int{4, 8} {
		for _, root := range []int{0, n / 2} {
			want := runReduction(t, n, root, elems, func(c *Comm, buf []float32) error {
				return c.ReduceChunked(root, buf, elems)
			})
			for _, chunk := range []int{1, 7, 64, elems + 100} {
				got := runReduction(t, n, root, elems, func(c *Comm, buf []float32) error {
					return c.ReduceChunked(root, buf, chunk)
				})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d root=%d chunk=%d: elem %d: ReduceChunked %x != flat %x",
							n, root, chunk, i, got[i], want[i])
					}
				}
			}
			for _, rpn := range []int{2, 4} {
				if root%rpn != 0 {
					continue
				}
				got := runReduction(t, n, root, elems, func(c *Comm, buf []float32) error {
					return c.HierarchicalReduce(root, buf, rpn)
				})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d root=%d rpn=%d: elem %d: HierarchicalReduce %x != flat %x",
							n, root, rpn, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The arena must not change a single bit: it only changes where the scratch
// memory comes from, never the arithmetic. Each variant runs first on an
// emptied arena — two collections clear both generations of every class, so
// each get that no put of the run precedes allocates fresh zeroed memory —
// and then on an arena seeded with NaN-filled buffers of every class the run
// draws, with the collector off so none is dropped. A reduction that reads a
// scratch element it did not write carries a NaN into the sum.
func TestReductionsIgnoreArenaContents(t *testing.T) {
	const n, elems, root = 8, 193, 0
	run := func(seed bool, reduce func(c *Comm, buf []float32) error) []float32 {
		runtime.GC()
		runtime.GC()
		if seed {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for k := 0; k <= bits.Len(elems-1); k++ {
				for range 4 * n {
					s := make([]float32, 1<<k+ScratchHeadroom)
					for i := range s {
						s[i] = float32(math.NaN())
					}
					PutScratch(s)
				}
			}
		}
		return runReduction(t, n, root, elems, reduce)
	}
	variants := map[string]func(c *Comm, buf []float32) error{
		"flat":    func(c *Comm, buf []float32) error { return c.ReduceChunked(root, buf, elems) },
		"chunked": func(c *Comm, buf []float32) error { return c.ReduceChunked(root, buf, 32) },
		"hier":    func(c *Comm, buf []float32) error { return c.HierarchicalReduce(root, buf, 4) },
		// A ring pass of arena scratch ahead of the reduce: the buffers
		// the transport hands back must not leak into the sum.
		"ring+reduce": func(c *Comm, buf []float32) error {
			out := GetScratch(len(buf))
			copy(out, buf)
			if err := c.Send((c.Rank()+1)%n, 9, out); err != nil {
				return err
			}
			in, err := c.Recv((c.Rank()+n-1)%n, 9)
			if err != nil {
				return err
			}
			PutScratch(in)
			return c.ReduceChunked(root, buf, len(buf))
		},
	}
	for name, fn := range variants {
		empty, seeded := run(false, fn), run(true, fn)
		for i := range empty {
			if math.Float32bits(seeded[i]) != math.Float32bits(empty[i]) {
				t.Fatalf("%s: elem %d: seeded arena %x != empty arena %x", name, i, seeded[i], empty[i])
			}
		}
	}
}

// Non-root buffers must stay untouched by a chunked reduction.
func TestChunkedReduceLeavesNonRootBuffers(t *testing.T) {
	const n, elems = 6, 41
	err := Run(n, func(c *Comm) error {
		buf := rankData(c.Rank(), elems)
		orig := append([]float32(nil), buf...)
		if err := c.ReduceChunked(2, buf, 8); err != nil {
			return err
		}
		if c.Rank() != 2 {
			for i := range buf {
				if buf[i] != orig[i] {
					return fmt.Errorf("rank %d buffer modified at %d", c.Rank(), i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceChunkedValidation(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.ReduceChunked(5, make([]float32, 4), 2); err == nil {
			return fmt.Errorf("expected root range error")
		}
		if err := c.ReduceChunked(0, make([]float32, 4), 0); err == nil {
			return fmt.Errorf("expected chunk size error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Chunked traffic accounting: every non-root rank forwards each segment
// exactly once, and the segment counter plus byte counters line up.
func TestReduceChunkedStats(t *testing.T) {
	const n, elems, chunk = 4, 100, 32 // 4 chunks: 32+32+32+4
	err := Run(n, func(c *Comm) error {
		buf := make([]float32, elems)
		if err := c.ReduceChunked(0, buf, chunk); err != nil {
			return err
		}
		st := c.Stats()
		if c.Rank() == 0 {
			if st.ReduceChunks != 0 {
				return fmt.Errorf("root forwarded %d chunks, want 0", st.ReduceChunks)
			}
			return nil
		}
		if st.ReduceChunks != 4 {
			return fmt.Errorf("rank %d forwarded %d chunks, want 4", c.Rank(), st.ReduceChunks)
		}
		if st.BytesSent != elems*4 {
			return fmt.Errorf("rank %d sent %d bytes, want %d", c.Rank(), st.BytesSent, elems*4)
		}
		if st.MessagesSent != 4 {
			return fmt.Errorf("rank %d sent %d messages, want 4 (one per chunk)", c.Rank(), st.MessagesSent)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The arena must actually be hit: after a warm-up reduction, further
// reductions borrow their scratch from buffers earlier ones returned. Each
// non-root rank borrows a 4096-float buffer per reduction, so an arena that
// served nothing would allocate 8 × 7 × 16 KiB over the loop.
func TestBufferArenaReuse(t *testing.T) {
	if alloctest.Race {
		t.Skip("sync.Pool drops a share of its buffers under the race detector")
	}
	const n, elems, reductions = 8, 4096, 8
	data := make([][]float32, n)
	for r := range data {
		data[r] = rankData(r, elems)
	}
	reduceOnce := func() {
		err := Run(n, func(c *Comm) error {
			return c.ReduceChunked(0, data[c.Rank()], elems)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	reduceOnce() // warm the arena
	// No collection may empty the arena's pools mid-loop.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := alloctest.AllocatedBy(func() {
		for range reductions {
			reduceOnce()
		}
	})
	unpooled := uint64(reductions * (n - 1) * 4 * elems)
	t.Logf("%d reductions allocated %d bytes; without reuse their scratch alone is %d", reductions, got, unpooled)
	if got*2 > unpooled {
		t.Fatalf("%d reductions allocated %d bytes, over half the %d their scratch takes without reuse",
			reductions, got, unpooled)
	}
}
