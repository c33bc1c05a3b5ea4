package nettrans

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The socket layer replaces package net, so what net.Conn gave for free is
// pinned here: Close unblocks a blocked Accept or Read, a clean peer close
// reads as io.EOF, dials fail within their bound, a write past its deadline
// says so, no socket survives an exec, and Nagle's algorithm is off.

// returnsWithin runs fn on its own goroutine, calls unblock once fn is
// running, and fails the test unless fn returns within a second after.
func returnsWithin(t *testing.T, what string, fn func() error, unblock func()) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	time.Sleep(20 * time.Millisecond) // let fn block
	unblock()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatalf("%s still blocked a second after the unblocking call", what)
		return nil
	}
}

func TestSocketCloseUnblocks(t *testing.T) {
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	err = returnsWithin(t, "Accept", func() error {
		c, err := ln.Accept()
		if c != nil {
			c.Close()
		}
		return err
	}, func() { ln.Close() })
	if err == nil {
		t.Error("Accept on a closed listener returned a connection")
	}

	a, b := socketPair(t)
	err = returnsWithin(t, "Read", func() error {
		_, err := a.Read(make([]byte, 16))
		return err
	}, func() { a.Close() })
	if err == nil {
		t.Error("Read on a closed socket returned no error")
	}
	// The peer of a closed socket reads a clean end of stream.
	b.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := b.Read(make([]byte, 16)); n != 0 || err != io.EOF {
		t.Errorf("peer of a closed socket read %d bytes, %v; want 0, io.EOF", n, err)
	}
}

func TestSocketDialFailsWithinBound(t *testing.T) {
	// Nobody listens: the port of a listener just closed.
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.addr
	ln.Close()
	const bound = 300 * time.Millisecond
	start := time.Now()
	if c, err := dialTCP(addr, bound); err == nil {
		c.Close()
		t.Fatalf("dial to %s, where nobody listens, connected", addr)
	} else if took := time.Since(start); took > bound {
		t.Errorf("refused dial took %v, more than its %v bound", took, bound)
	}

	// Somebody listens and never accepts: once the accept queue is full the
	// kernel drops the SYN, and the dial must give up at its bound.
	fd, err := newSocket()
	if err != nil {
		t.Fatal(err)
	}
	full := os.NewFile(uintptr(fd), "full-listener")
	defer full.Close()
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	addr = formatIPv4(sa)
	for i := 0; ; i++ {
		start := time.Now()
		c, err := dialTCP(addr, bound)
		took := time.Since(start)
		if err == nil {
			defer c.Close() // queued: the next one may find the queue full
			if i == 8 {
				t.Fatalf("8 dials to a listener that never accepts all connected")
			}
			continue
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("unanswered dial: %v, want os.ErrDeadlineExceeded", err)
		}
		if took < bound || took > bound+time.Second {
			t.Errorf("unanswered dial gave up after %v, its bound is %v", took, bound)
		}
		break
	}
}

func TestSocketWriteDeadline(t *testing.T) {
	a, _ := socketPair(t) // the peer never reads
	a.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	var vw vecWriter
	chunk := make([]byte, 1<<20)
	var err error
	for i := 0; i < 1024 && err == nil; i++ { // far past any socket buffer
		err = vw.write(a, [][]byte{chunk[:100], chunk})
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("writev past the deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	if _, err := a.Write(chunk); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past the deadline: %v, want os.ErrDeadlineExceeded", err)
	}
}

// A -world coordinator spawns its workers while its listener and accepted
// links are open; a worker must inherit none of them (close-on-exec), or a
// dead coordinator's port stays bound by its children. The child is this
// test binary again, reporting the sockets it holds.
func TestSocketsNotInherited(t *testing.T) {
	if os.Getenv("NETTRANS_TEST_COUNT_SOCKETS") == "1" {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		var socks []string
		for _, e := range ents {
			if dst, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(dst, "socket:") {
				socks = append(socks, e.Name()+" -> "+dst)
			}
		}
		fmt.Printf("inherited sockets: %d %v\n", len(socks), socks)
		return
	}
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	socketPair(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestSocketsNotInherited$", "-test.count=1")
	cmd.Env = append(os.Environ(), "NETTRANS_TEST_COUNT_SOCKETS=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "inherited sockets: 0 ") {
		t.Errorf("the spawned process holds sockets of its parent:\n%s", out)
	}
}

// Two small frames written back to back, then a reply: with Nagle's
// algorithm on, the second frame waits for the ack of the first, which
// the peer delays (≈ 40 ms on Linux) — a stall per round trip.
func TestSocketSmallFramesNoNagleStall(t *testing.T) {
	a, b := socketPair(t)
	const rounds = 200
	credit := encodeFrame(&frame{kind: kindCredit, seq: 1})
	beat := encodeFrame(&frame{kind: kindHeartbeat})
	echo := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			for k := 0; k < 2; k++ {
				if _, err := readFrame(b); err != nil {
					echo <- err
					return
				}
			}
			if _, err := b.Write(beat); err != nil {
				echo <- err
				return
			}
		}
		echo <- nil
	}()
	var vw vecWriter
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := vw.write(a, [][]byte{credit}); err != nil {
			t.Fatal(err)
		}
		if err := vw.write(a, [][]byte{beat}); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(a); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	if err := <-echo; err != nil {
		t.Fatal(err)
	}
	// Without stalls a round trip is tens of microseconds; one delayed ack
	// per round would take ≥ 8 s.
	if took > 2*time.Second {
		t.Errorf("%d small-frame round trips took %v: writes wait for delayed acks (TCP_NODELAY off?)", rounds, took)
	}
}

// Addresses are IPv4 literals with a port: nothing is resolved.
func TestParseIPv4(t *testing.T) {
	if sa, err := parseIPv4("127.0.0.1:8080"); err != nil || sa.Addr != [4]byte{127, 0, 0, 1} || sa.Port != 8080 {
		t.Errorf("127.0.0.1:8080 parsed as %+v, %v", sa, err)
	}
	for _, bad := range []string{"localhost:80", "127.0.0.1", "127.0.0:80", "127.0.0.256:80",
		"127.0.0.1:65536", "127.0.0.1:-1", ":80", "[::1]:80", ""} {
		if _, err := parseIPv4(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
