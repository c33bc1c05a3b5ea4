package nettrans

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/telemetry"
)

func testConfig() Config {
	return Config{
		Heartbeat:  20 * time.Millisecond,
		DeathAfter: 1500 * time.Millisecond,
	}
}

func newTestFleet(t *testing.T, procs int, cfg Config) *Fleet {
	t.Helper()
	fl, err := NewFleet(procs, cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(fl.Close)
	return fl
}

func rankBuf(rank, n int) []float32 {
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(math.Sin(float64(rank*1000+i))) * float32(i%7+1)
	}
	return buf
}

// TestFleetReduceMatchesChannels runs the same collective workload on the
// in-process world and on a 3-proc TCP fleet and requires bit-identical
// per-rank results: the transport must not perturb the reduction's
// summation order. Nothing was injected, so the links end the run never
// having been cut or re-established: a reconnect on a clean loopback wire
// is a defect, not jitter.
func TestFleetReduceMatchesChannels(t *testing.T) {
	const size, elems = 4, 257
	workload := func(sink *sync.Map) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			// The sum lands on a worker process, in segments.
			buf := rankBuf(c.Rank(), elems)
			if err := c.ReduceChunked(size-1, buf, 64); err != nil {
				return err
			}
			// A point-to-point ring pass on top, to cover Send/Recv framing.
			next, prev := (c.Rank()+1)%size, (c.Rank()+size-1)%size
			if err := c.Send(next, 7, append([]float32(nil), buf[:8]...)); err != nil {
				return err
			}
			got, err := c.Recv(prev, 7)
			if err != nil {
				return err
			}
			sink.Store(c.Rank(), append(append([]float32(nil), buf...), got...))
			return nil
		}
	}

	var wantSink sync.Map
	if err := mpi.Run(size, workload(&wantSink)); err != nil {
		t.Fatalf("in-process world: %v", err)
	}

	cfg := testConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	fl := newTestFleet(t, 3, cfg)
	assign, err := AssignRanks(size, 2, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("AssignRanks: %v", err)
	}
	var gotSink sync.Map
	for p, err := range fl.Run(size, assign, mpi.Options{}, workload(&gotSink)) {
		if err != nil {
			t.Fatalf("fleet proc %d: %v", p, err)
		}
	}
	for r := 0; r < size; r++ {
		w, _ := wantSink.Load(r)
		g, ok := gotSink.Load(r)
		if !ok {
			t.Fatalf("rank %d produced no result over TCP", r)
		}
		want, got := w.([]float32), g.([]float32)
		if len(want) != len(got) {
			t.Fatalf("rank %d: length %d vs %d", r, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("rank %d elem %d: %x over TCP vs %x in process",
					r, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	snap := cfg.Telemetry.Snapshot().Counters
	for _, name := range []string{"transport.reconnects", "transport.severs", "transport.retransmits", "transport.crc_errors"} {
		if snap[name] != 0 {
			t.Errorf("fault-free fleet run ended with %s = %d, want 0", name, snap[name])
		}
	}
}

// opRecorder is an mpi.Interceptor that writes down what it is shown.
type opRecorder struct {
	mu  sync.Mutex
	ops map[int][]string // rank -> "send→peer#tag" / "recv←peer#tag" in program order
}

func (o *opRecorder) note(rank int, op string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ops[rank] = append(o.ops[rank], op)
	return nil
}

func (o *opRecorder) BeforeSend(rank, dst, tag int) error {
	return o.note(rank, fmt.Sprintf("send→%d#%d", dst, tag))
}

func (o *opRecorder) BeforeRecv(rank, src, tag int) error {
	return o.note(rank, fmt.Sprintf("recv←%d#%d", src, tag))
}

// TestInterceptorSequenceSameInBothWorlds: one fault schedule must mean
// the same messages wherever the ranks live. The interceptor counts every
// point-to-point operation it is shown, so it has to be shown the same
// per-rank (op, peer, tag) sequence in process and over sockets — Split's
// formation exchange included in neither.
func TestInterceptorSequenceSameInBothWorlds(t *testing.T) {
	const size = 4
	// The interceptor is shown world ranks on every communicator, so each
	// label has one writer, the rank itself, and its sequence is the
	// rank's program order.
	program := func() func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			group, err := c.Split(c.Rank()/2, c.Rank())
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			switch c.Rank() {
			case 3:
				err = c.Send(0, 11, []float32{1})
			case 0:
				_, err = c.Recv(3, 11)
			}
			if err != nil {
				return err
			}
			if err := group.ReduceChunked(0, rankBuf(c.Rank(), 24), 8); err != nil {
				return err
			}
			pair, err := group.Split(0, group.Rank())
			if err != nil {
				return err
			}
			return pair.ReduceChunked(0, rankBuf(c.Rank(), 5), 5)
		}
	}
	inproc := &opRecorder{ops: map[int][]string{}}
	if err := mpi.RunWith(size, mpi.Options{Interceptor: inproc}, program()); err != nil {
		t.Fatalf("in-process world: %v", err)
	}
	socket := &opRecorder{ops: map[int][]string{}}
	fl := newTestFleet(t, 2, testConfig())
	assign, _ := AssignRanks(size, 2, []int{0, 1}, 2)
	for p, err := range fl.Run(size, assign, mpi.Options{Interceptor: socket}, program()) {
		if err != nil {
			t.Fatalf("fleet proc %d: %v", p, err)
		}
	}
	for r := 0; r < size; r++ {
		if len(inproc.ops[r]) == 0 {
			t.Fatalf("rank %d: the interceptor saw nothing", r)
		}
		if !reflect.DeepEqual(inproc.ops[r], socket.ops[r]) {
			t.Errorf("rank %d:\n in process %v\n over sockets %v", r, inproc.ops[r], socket.ops[r])
		}
		for _, op := range inproc.ops[r] {
			if strings.HasSuffix(op, "#-5") {
				t.Errorf("rank %d: Split's formation exchange reached the interceptor: %v", r, inproc.ops[r])
			}
		}
	}
}

// TestFleetSplitOverWire exercises the communicator-split protocol across
// processes (sub-communicators negotiated via the hub).
func TestFleetSplitOverWire(t *testing.T) {
	const size = 4
	fl := newTestFleet(t, 3, testConfig())
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)
	var sums sync.Map
	errs := fl.Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
		sub, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		buf := []float32{float32(c.Rank() + 1)}
		if err := sub.ReduceChunked(0, buf, 1); err != nil {
			return err
		}
		sums.Store(c.Rank(), buf[0])
		return nil
	})
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	// The group roots hold 1+2 and 3+4; the other members keep their own.
	want := map[int]float32{0: 3, 1: 2, 2: 7, 3: 4}
	for r, w := range want {
		g, ok := sums.Load(r)
		if !ok || g.(float32) != w {
			t.Fatalf("rank %d group sum = %v, want %v", r, g, w)
		}
	}
}

// TestFleetWireChaosRecovers injects every wire fault class — sever,
// drop, corrupt, duplicate — under one seeded schedule and requires the
// run to complete with the in-process world's results bit for bit,
// recovered entirely by the link's CRC/sequence/replay machinery, with the
// transport counters proving each path actually fired.
func TestFleetWireChaosRecovers(t *testing.T) {
	const size, rounds = 4, 30
	reg := telemetry.NewRegistry()
	inj := fault.NewInjector(42,
		fault.Rule{Op: fault.OpSever, Rank: 1, Nth: 2},
		fault.Rule{Op: fault.OpFrameDrop, Rank: 2, Nth: 3},
		fault.Rule{Op: fault.OpFrameCorrupt, Rank: 3, Nth: 2},
		fault.Rule{Op: fault.OpFrameDup, Rank: 1, Nth: 5, Count: 2},
	)
	cfg := testConfig()
	cfg.Telemetry = reg
	cfg.Injector = inj
	fl := newTestFleet(t, 3, cfg)
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)

	// The root rotates, so every rank's frames cross the wire; each rank
	// totals the sums it was root of.
	program := func(sums *sync.Map) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			total := make([]float32, 64)
			for round := 0; round < rounds; round++ {
				buf := rankBuf(c.Rank()*31+round, len(total))
				if err := c.ReduceChunked(round%size, buf, len(buf)); err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
				if c.Rank() == round%size {
					for i := range total {
						total[i] += buf[i]
					}
				}
			}
			sums.Store(c.Rank(), total)
			return nil
		}
	}
	var want, got sync.Map
	if err := mpi.Run(size, program(&want)); err != nil {
		t.Fatalf("in-process world: %v", err)
	}
	for p, err := range fl.Run(size, assign, mpi.Options{}, program(&got)) {
		if err != nil {
			t.Fatalf("proc %d under wire chaos: %v", p, err)
		}
	}
	for r := 0; r < size; r++ {
		w, _ := want.Load(r)
		g, _ := got.Load(r)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("rank %d under chaos diverged from the in-process world", r)
		}
	}
	if inj.Fired() < 4 {
		t.Fatalf("injector fired %d times, want >= 4", inj.Fired())
	}
	snap := reg.Snapshot().Counters
	for _, want := range []string{"transport.reconnects", "transport.crc_errors",
		"transport.dup_frames", "transport.retransmits"} {
		if snap[want] < 1 {
			t.Fatalf("%s = %d, want >= 1 (snapshot: %v)", want, snap[want], snap)
		}
	}
	// The one sever rule is counted where it cut, once.
	if snap["transport.severs"] != 1 {
		t.Fatalf("transport.severs = %d, want 1", snap["transport.severs"])
	}
}

// TestFleetPartitionAttributesRanks partitions one worker mid-run: the
// survivors must unblock with the dead proc's ranks attributed via
// ErrRankLost — the exact contract core.Supervise shrinks on — and agree
// on the loss set (hub and worker alike).
func TestFleetPartitionAttributesRanks(t *testing.T) {
	const size = 4
	cfg := testConfig()
	cfg.DeathAfter = 400 * time.Millisecond
	fl := newTestFleet(t, 3, cfg)
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)

	var once sync.Once
	partition := func() {
		// Model a network partition of proc 2: its side of the link dies
		// (it sees the hub gone), and its silence drives the hub's failure
		// detector.
		fl.Nodes[2].links[0].declareDead()
	}
	errs := fl.Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
		for round := 0; ; round++ {
			if err := c.ReduceChunked(0, []float32{float32(c.Rank())}, 1); err != nil {
				return err
			}
			if round == 2 {
				once.Do(partition)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	wantLost := assign[2]
	for _, p := range []int{0, 1} {
		err := errs[p]
		if err == nil {
			t.Fatalf("proc %d: run succeeded despite partition", p)
		}
		if !errors.Is(err, mpi.ErrRankLost) {
			t.Fatalf("proc %d: error not ErrRankLost: %v", p, err)
		}
		if got := mpi.LostRanks(err); !reflect.DeepEqual(got, wantLost) {
			t.Fatalf("proc %d: LostRanks = %v, want %v (err: %v)", p, got, wantLost, err)
		}
	}
	// The partitioned proc unblocks too (hub unreachable from its side).
	if errs[2] == nil || !errors.Is(errs[2], mpi.ErrRankLost) {
		t.Fatalf("partitioned proc: %v", errs[2])
	}
	// And the survivors' nodes agree proc 2 is gone for the next epoch.
	for _, p := range []int{0, 1} {
		if got := fl.Nodes[p].LiveProcs(); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Fatalf("proc %d LiveProcs = %v, want [0 1]", p, got)
		}
	}
}

// TestFleetFormationTimeoutFailsEpoch starts an epoch on only 2 of 3
// procs: the hub must declare the no-show dead, fail the epoch with its
// ranks, and hand the joined worker the same verdict.
func TestFleetFormationTimeoutFailsEpoch(t *testing.T) {
	const size = 4
	cfg := testConfig()
	cfg.DeathAfter = 200 * time.Millisecond
	fl := newTestFleet(t, 3, cfg)
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for _, p := range []int{0, 1} { // proc 2 never calls Run
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fl.Nodes[p].Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
				t.Errorf("rank %d ran despite failed formation", c.Rank())
				return nil
			})
		}(p)
	}
	wg.Wait()
	wantLost := assign[2]
	for p, err := range errs {
		if err == nil {
			t.Fatalf("proc %d: formation succeeded without proc 2", p)
		}
		if got := mpi.LostRanks(err); !reflect.DeepEqual(got, wantLost) {
			t.Fatalf("proc %d: LostRanks = %v, want %v (err: %v)", p, got, wantLost, err)
		}
	}
}

// TestFleetFormationRefusesMismatchedAssignment starts an epoch in which
// proc 2 holds another world assignment than the hub's: the hub refuses the
// epoch naming proc 2, and the refusal reaches every worker within one
// formation window as an error that attributes no lost rank, so no
// supervisor shrinks a healthy world over it.
func TestFleetFormationRefusesMismatchedAssignment(t *testing.T) {
	const size = 4
	cfg := testConfig()
	cfg.DeathAfter = 200 * time.Millisecond
	window := 2*cfg.DeathAfter + time.Second
	fl := newTestFleet(t, 3, cfg)
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)
	other, _ := AssignRanks(size, 2, []int{0, 2}, 3) // as if proc 1 were dead

	var wg sync.WaitGroup
	errs := make([]error, 3)
	took := make([]time.Duration, 3)
	for p, n := range fl.Nodes {
		a := assign
		if p == 2 {
			a = other
		}
		wg.Add(1)
		go func(p int, n *Node, a [][]int) {
			defer wg.Done()
			start := time.Now()
			errs[p] = n.Run(size, a, mpi.Options{}, func(c *mpi.Comm) error {
				t.Errorf("rank %d ran in a refused epoch", c.Rank())
				return nil
			})
			took[p] = time.Since(start)
		}(p, n, a)
	}
	wg.Wait()
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "procs [2]") {
		t.Fatalf("hub: %v, want a refusal naming procs [2]", errs[0])
	}
	for p, err := range errs {
		if err == nil {
			t.Fatalf("proc %d: formation succeeded with mismatched assignments", p)
		}
		if errors.Is(err, mpi.ErrRankLost) {
			t.Errorf("proc %d: the refusal attributes lost ranks %v: %v", p, mpi.LostRanks(err), err)
		}
		if p > 0 && took[p] > window {
			t.Errorf("proc %d: Run returned after %v, past one formation window (%v): %v", p, took[p], window, err)
		}
	}
}

func TestAssignRanks(t *testing.T) {
	got, err := AssignRanks(8, 2, []int{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2, 4, 6}, {1, 7}, {3}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AssignRanks(8,2,[0..3]) = %v, want %v", got, want)
	}
	// After losing proc 2, its share redistributes over the survivors.
	got, err = AssignRanks(4, 2, []int{0, 1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want = [][]int{{0, 2}, {1}, nil, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AssignRanks(4,2,[0,1,3]) = %v, want %v", got, want)
	}
	// Leaders always land on the hub, whatever the shrink.
	if _, err := AssignRanks(4, 2, []int{1, 2}, 3); err == nil {
		t.Fatal("AssignRanks accepted a world without the hub")
	}
	if _, err := AssignRanks(5, 2, []int{0}, 1); err == nil {
		t.Fatal("AssignRanks accepted n % nr != 0")
	}
}
