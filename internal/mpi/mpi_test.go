package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunBasics(t *testing.T) {
	var seen [5]atomic.Bool
	err := Run(5, func(c *Comm) error {
		if c.Size() != 5 {
			return fmt.Errorf("size %d", c.Size())
		}
		if seen[c.Rank()].Swap(true) {
			return fmt.Errorf("rank %d launched twice", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Fatalf("rank %d never ran", r)
		}
	}
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Error("expected world-size error")
	}
}

func TestRunJoinsErrorsAndPanics(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return errors.New("boom-error")
		case 2:
			panic("boom-panic")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected joined error")
	}
	msg := err.Error()
	if !contains(msg, "boom-error") || !contains(msg, "boom-panic") {
		t.Fatalf("joined error missing causes: %v", msg)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []float32{1, 2, 3}); err != nil {
				return err
			}
			return c.Send(1, 8, nil)
		}
		data, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(data) != 3 || data[2] != 3 {
			return fmt.Errorf("bad payload %v", data)
		}
		empty, err := c.Recv(0, 8)
		if err != nil {
			return err
		}
		if empty != nil {
			return fmt.Errorf("bad empty payload %v", empty)
		}
		st := c.Stats()
		if st.BytesRecv != 12 || st.MessagesRecv != 2 {
			return fmt.Errorf("stats %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvErrors(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("expected out-of-range send error")
		}
		if err := c.Send(0, 0, nil); err == nil {
			return errors.New("expected self-send error")
		}
		if _, err := c.Recv(9, 0); err == nil {
			return errors.New("expected out-of-range recv error")
		}
		if _, err := c.Recv(0, 0); err == nil {
			return errors.New("expected self-recv error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMismatch(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, nil)
		}
		if _, err := c.Recv(0, 2); err == nil {
			return errors.New("expected tag mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	for _, n := range []int{2, 3, 7, 8} {
		var before atomic.Int32
		err := Run(n, func(c *Comm) error {
			before.Add(1)
			if err := c.Barrier(); err != nil {
				return err
			}
			if got := before.Load(); got != int32(n) {
				return fmt.Errorf("rank %d passed barrier with %d/%d arrivals", c.Rank(), got, n)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReduceSumsExactly(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 8, 13} {
		for _, root := range []int{0, n - 1} {
			err := Run(n, func(c *Comm) error {
				// Integer-valued contributions: float32 sums are exact.
				buf := []float32{float32(c.Rank() + 1), float32(2 * (c.Rank() + 1))}
				orig := append([]float32(nil), buf...)
				if err := c.ReduceChunked(root, buf, len(buf)); err != nil {
					return err
				}
				total := float32(n * (n + 1) / 2)
				if c.Rank() == root {
					if buf[0] != total || buf[1] != 2*total {
						return fmt.Errorf("root sum %v, want %g", buf, total)
					}
				} else if buf[0] != orig[0] || buf[1] != orig[1] {
					return fmt.Errorf("rank %d buffer modified: %v", c.Rank(), buf)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func TestHierarchicalReduceMatchesFlat(t *testing.T) {
	for _, tc := range []struct{ n, rpn int }{{8, 4}, {6, 2}, {7, 3}, {4, 8}, {9, 3}} {
		err := Run(tc.n, func(c *Comm) error {
			buf := []float32{float32(c.Rank() + 1)}
			if err := c.HierarchicalReduce(0, buf, tc.rpn); err != nil {
				return err
			}
			if c.Rank() == 0 {
				want := float32(tc.n * (tc.n + 1) / 2)
				if buf[0] != want {
					return fmt.Errorf("hierarchical sum %g, want %g", buf[0], want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d rpn=%d: %v", tc.n, tc.rpn, err)
		}
	}
	// Root must be a node leader inside the communicator: 4 and −2 are
	// multiples of ranksPerNode, but no rank holds them.
	for _, root := range []int{1, 4, -2} {
		if err := Run(4, func(c *Comm) error {
			if err := c.HierarchicalReduce(root, []float32{1}, 2); err == nil {
				return fmt.Errorf("rank %d accepted root %d", c.Rank(), root)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// The segmented reduction of the paper: split the world into groups of Nr
// consecutive ranks, reduce independently within each group, and verify
// both results and isolation.
func TestSplitSegmentedReduce(t *testing.T) {
	const n, nr = 8, 4
	err := Run(n, func(c *Comm) error {
		group, err := c.Split(c.Rank()/nr, c.Rank())
		if err != nil {
			return err
		}
		if group.Size() != nr {
			return fmt.Errorf("group size %d, want %d", group.Size(), nr)
		}
		if want := c.Rank() % nr; group.Rank() != want {
			return fmt.Errorf("group rank %d, want %d", group.Rank(), want)
		}
		buf := []float32{float32(c.Rank())}
		if err := group.ReduceChunked(0, buf, len(buf)); err != nil {
			return err
		}
		if group.Rank() == 0 {
			g := c.Rank() / nr
			want := float32(0)
			for r := g * nr; r < (g+1)*nr; r++ {
				want += float32(r)
			}
			if buf[0] != want {
				return fmt.Errorf("group %d sum %g, want %g", g, buf[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	const n = 4
	err := Run(n, func(c *Comm) error {
		// Same color, reversed key: rank order inverts.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		if want := n - 1 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("parent %d got sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitRepeatedCollectives(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		for iter := 0; iter < 3; iter++ {
			sub, err := c.Split(c.Rank()%2, c.Rank())
			if err != nil {
				return err
			}
			if sub.Size() != n/2 {
				return fmt.Errorf("iter %d size %d", iter, sub.Size())
			}
			if err := sub.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: tree reduction over random world sizes with integer payloads is
// exactly the arithmetic series sum.
func TestReduceProperty(t *testing.T) {
	f := func(sizeRaw uint8) bool {
		n := 1 + int(sizeRaw)%12
		ok := true
		err := Run(n, func(c *Comm) error {
			buf := []float32{float32(c.Rank() * c.Rank())}
			if err := c.ReduceChunked(0, buf, len(buf)); err != nil {
				return err
			}
			if c.Rank() == 0 {
				var want float32
				for r := 0; r < n; r++ {
					want += float32(r * r)
				}
				if buf[0] != want {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Reduce traffic must scale as O(log N) rounds per rank: each rank sends at
// most one message in a binomial reduce.
func TestReduceMessageCounts(t *testing.T) {
	const n = 8
	err := Run(n, func(c *Comm) error {
		buf := make([]float32, 256)
		if err := c.ReduceChunked(0, buf, len(buf)); err != nil {
			return err
		}
		st := c.Stats()
		if c.Rank() != 0 && st.MessagesSent != 1 {
			return fmt.Errorf("rank %d sent %d messages, want 1", c.Rank(), st.MessagesSent)
		}
		if c.Rank() == 0 && st.MessagesRecv != 3 { // log2(8)
			return fmt.Errorf("root received %d messages, want 3", st.MessagesRecv)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReduce8x64k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := Run(8, func(c *Comm) error {
			buf := make([]float32, 65536)
			return c.ReduceChunked(0, buf, len(buf))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
