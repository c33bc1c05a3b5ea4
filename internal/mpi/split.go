package mpi

import (
	"fmt"
	"sort"
)

// Split partitions the communicator into sub-communicators by color, the
// MPI_Comm_split used in Section 4.4.1 to form the paper's rank groups
// (color = rank/Nr there). Ranks passing the same color form a new
// communicator whose rank order follows (key, parent rank). Every rank of
// the parent must call Split collectively, having received whatever its
// peers sent it before; calls are matched by sequence number, so repeated
// splits are safe.
//
// Ranks may live in different OS processes, so they meet by message: rank 0
// of the parent gathers every rank's (seq, color, key), computes the
// partition, and replies to each member with (child id, new rank, the
// child's world ranks). The child shares the parent's transport, teardown
// and message-id space, so its traffic carries world coordinates. The
// exchange is world formation, not data path: it bypasses the interceptor,
// Stats and the flow records. A rank that dies before entering the
// collective would leave the others waiting forever; the world teardown
// (or the deadline) wakes them with a typed loss instead.
func (c *Comm) Split(color, key int) (*Comm, error) {
	g := c.group
	seq := c.splitSeq
	c.splitSeq++

	var reply []int // child id, new rank, world ranks of the child
	if c.rank != 0 {
		if err := c.send(0, Message{Tag: tagSplit, Ctl: []int{seq, color, key}}); err != nil {
			return nil, err
		}
		m, err := c.recv(0, tagSplit)
		if err != nil {
			return nil, err
		}
		if reply = m.Ctl; len(reply) < 3 {
			return nil, fmt.Errorf("mpi: rank %d: malformed split reply %v", c.rank, reply)
		}
	} else {
		entries := make([][2]int, c.size) // parent rank -> (color, key)
		entries[0] = [2]int{color, key}
		byColor := map[int][]int{color: {0}} // color -> parent ranks
		for src := 1; src < c.size; src++ {
			m, err := c.recv(src, tagSplit)
			if err != nil {
				return nil, err
			}
			v := m.Ctl
			if len(v) != 3 {
				return nil, fmt.Errorf("mpi: split gather from rank %d malformed: %v", src, v)
			}
			if v[0] != seq {
				return nil, fmt.Errorf("mpi: split sequence mismatch: rank 0 at %d, rank %d at %d", seq, src, v[0])
			}
			entries[src] = [2]int{v[1], v[2]}
			byColor[v[1]] = append(byColor[v[1]], src)
		}
		// Disjoint colors of one split may share an id harmlessly (their
		// endpoint pairs never collide); overlapping membership only arises
		// along one rank's split lineage, where the (parent id, seq) mix
		// separates the generations.
		id := int(deriveCommID(g.commID, seq))
		for _, ranks := range byColor {
			sort.SliceStable(ranks, func(i, j int) bool {
				return entries[ranks[i]][1] < entries[ranks[j]][1]
			})
			world := make([]int, len(ranks))
			for nr, pr := range ranks {
				world[nr] = g.regRanks[pr]
			}
			for nr, pr := range ranks {
				msg := append([]int{id, nr}, world...)
				if pr == 0 {
					reply = msg
				} else if err := c.send(pr, Message{Tag: tagSplit, Ctl: msg}); err != nil {
					return nil, err
				}
			}
		}
	}

	sub := newGroup(g.tr, g.td, g.msgID, int32(reply[0]), reply[2:]).comm(reply[1])
	// The sub-communicator endpoint inherits this endpoint's settings.
	sub.deadline = c.deadline
	sub.icept = c.icept
	sub.setTelemetry(c.tm)
	return sub, nil
}

// deriveCommID mixes the parent communicator id and the split sequence
// into a stable non-zero child id (FNV-1a), identical on every process
// because both inputs are.
func deriveCommID(parent int32, seq int) int32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 16777619
		}
	}
	mix(uint32(parent))
	mix(uint32(seq) + 1)
	id := int32(h & 0x7fffffff)
	if id == 0 {
		id = 1
	}
	return id
}
