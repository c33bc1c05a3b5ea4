package mpi_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"distfdk/internal/mpi"
	"distfdk/internal/mpi/nettrans"
)

// fleetWorld runs a 2-rank world on a 2-node loopback fleet, the ranks
// hosted as assign says.
func fleetWorld(assign [][]int) func(mpi.Options, func(*mpi.Comm) error) error {
	return func(opt mpi.Options, fn func(*mpi.Comm) error) error {
		fl, err := nettrans.NewFleet(2, nettrans.Config{})
		if err != nil {
			return err
		}
		defer fl.Close()
		return errors.Join(fl.Run(2, assign, opt, fn)...)
	}
}

// TestSendDeadlineOnFullBuffer: one back-pressure contract in every world.
// A receiver that does not drain takes mpi.SendWindow messages; the next
// send blocks and wakes with ErrRankLost at the deadline, not before. Once
// the receiver pops k messages exactly k more sends pass. Over sockets the
// two ranks live in two processes (each pop returns its credit in a frame)
// and in one (the credit is returned in place).
func TestSendDeadlineOnFullBuffer(t *testing.T) {
	const deadline, k = 100 * time.Millisecond, 3
	worlds := []struct {
		name string
		run  func(mpi.Options, func(*mpi.Comm) error) error
	}{
		{"channels", func(opt mpi.Options, fn func(*mpi.Comm) error) error { return mpi.RunWith(2, opt, fn) }},
		{"sockets", fleetWorld([][]int{{0}, {1}})},
		{"sockets-one-process", fleetWorld([][]int{{0, 1}, nil})},
	}
	for _, world := range worlds {
		t.Run(world.name, func(t *testing.T) {
			drain, drained, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			err := world.run(mpi.Options{Deadline: deadline}, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					<-drain
					for i := 0; i < k; i++ {
						if _, err := c.Recv(0, 1); err != nil {
							return err
						}
					}
					close(drained)
					<-done
					return nil
				}
				defer close(done)
				sent := 0
				// pass sends n messages that must fit the window, then one
				// that must not.
				pass := func(n int) error {
					for i := 0; i < n; i++ {
						if err := c.Send(1, 1, []float32{float32(sent)}); err != nil {
							return fmt.Errorf("send %d, %d into an open window: %w", sent+1, i+1, err)
						}
						sent++
					}
					start := time.Now()
					err := c.Send(1, 1, []float32{-1})
					if !errors.Is(err, mpi.ErrRankLost) {
						return fmt.Errorf("send %d on a full window: %v, want ErrRankLost", sent+1, err)
					}
					if waited := time.Since(start); waited < deadline {
						return fmt.Errorf("send %d gave up after %v, before its %v deadline", sent+1, waited, deadline)
					}
					return nil
				}
				if err := pass(mpi.SendWindow); err != nil {
					return err
				}
				close(drain)
				<-drained
				return pass(k)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
