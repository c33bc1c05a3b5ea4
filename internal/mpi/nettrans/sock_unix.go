//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package nettrans

// Loopback TCP through package syscall rather than package net: net links
// the resolver and cgo into the binary, which makes it dynamically linked
// and costs every process about a millisecond of start-up that a
// reconstruction never uses. A socket here is non-blocking and
// close-on-exec, and is handed out as an *os.File, which registers it with
// the runtime poller: deadlines, Close unblocking a blocked Read or Accept,
// and io.EOF at a clean peer close behave as they do for a net.Conn.

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// maxIovecs bounds the buffers one writev takes (IOV_MAX is 1024 on Linux
// and the BSDs); a longer run goes out in several calls.
const maxIovecs = 1024

// listener is a listening TCP socket on an IPv4 address.
type listener struct {
	f    *os.File
	addr string // the bound address, port resolved
}

// listenTCP binds and listens on addr, an IPv4 literal with a port
// ("127.0.0.1:0" picks a free port).
func listenTCP(addr string) (*listener, error) {
	sa, err := parseIPv4(addr)
	if err != nil {
		return nil, err
	}
	fd, err := newSocket()
	if err != nil {
		return nil, err
	}
	bound, err := func() (syscall.Sockaddr, error) {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
			return nil, os.NewSyscallError("setsockopt", err)
		}
		if err := syscall.Bind(fd, sa); err != nil {
			return nil, os.NewSyscallError("bind", err)
		}
		if err := syscall.Listen(fd, syscall.SOMAXCONN); err != nil {
			return nil, os.NewSyscallError("listen", err)
		}
		sa, err := syscall.Getsockname(fd)
		return sa, os.NewSyscallError("getsockname", err)
	}()
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return &listener{f: os.NewFile(uintptr(fd), "tcp-listener"), addr: formatIPv4(bound)}, nil
}

// Accept waits for the next connection. Once Close is called it returns an
// error, also to a call already waiting.
func (l *listener) Accept() (*os.File, error) {
	rc, err := l.f.SyscallConn()
	if err != nil {
		return nil, err
	}
	nfd, aerr := -1, error(nil)
	err = rc.Read(func(fd uintptr) bool {
		for {
			syscall.ForkLock.RLock()
			nfd, _, aerr = syscall.Accept(int(fd))
			if aerr == nil {
				syscall.CloseOnExec(nfd)
			}
			syscall.ForkLock.RUnlock()
			switch aerr {
			case syscall.EINTR, syscall.ECONNABORTED:
				continue // retry now: the readiness is not consumed
			case syscall.EAGAIN:
				return false // wait for the next connection
			}
			return true
		}
	})
	if err == nil {
		err = os.NewSyscallError("accept", aerr)
	}
	if err != nil {
		return nil, err
	}
	return connFile(nfd)
}

// Close closes the socket; a blocked Accept returns.
func (l *listener) Close() error { return l.f.Close() }

// dialTCP connects to addr, an IPv4 literal with a port, and fails once
// timeout passes without a connection.
func dialTCP(addr string, timeout time.Duration) (*os.File, error) {
	sa, err := parseIPv4(addr)
	if err != nil {
		return nil, err
	}
	fd, err := newSocket()
	if err != nil {
		return nil, err
	}
	switch err := syscall.Connect(fd, sa); err {
	case nil, syscall.EISCONN:
		return connFile(fd)
	case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
	default:
		syscall.Close(fd)
		return nil, fmt.Errorf("dial %s: %w", addr, os.NewSyscallError("connect", err))
	}
	// The connect completes in the background: wait for the socket to turn
	// writable, under the write deadline, then read its outcome.
	f, err := connFile(fd)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*os.File, error) {
		f.Close()
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	rc, err := f.SyscallConn()
	if err == nil {
		err = f.SetWriteDeadline(time.Now().Add(timeout))
	}
	if err != nil {
		return fail(err)
	}
	var cerr error
	err = rc.Write(func(fd uintptr) bool {
		v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		if err != nil {
			cerr = os.NewSyscallError("getsockopt", err)
			return true
		}
		switch e := syscall.Errno(v); e {
		case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
			return false
		case 0:
			// The poller may wake early: only a peer name says connected.
			_, err := syscall.Getpeername(int(fd))
			return err == nil
		case syscall.EISCONN:
			return true
		default:
			cerr = os.NewSyscallError("connect", e)
			return true
		}
	})
	if err = errors.Join(err, cerr); err != nil {
		return fail(err)
	}
	f.SetWriteDeadline(time.Time{})
	return f, nil
}

// newSocket opens a non-blocking IPv4 stream socket that a spawned process
// does not inherit. The fork lock orders the close-on-exec flag before any
// fork of os/exec, as package net does where the flag cannot be set at
// creation.
func newSocket() (int, error) {
	syscall.ForkLock.RLock()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fd)
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return -1, os.NewSyscallError("socket", err)
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return -1, os.NewSyscallError("setnonblock", err)
	}
	return fd, nil
}

// connFile hands a connected socket out as a pollable file, with Nagle's
// algorithm off as package net leaves it: the small credit and heartbeat
// frames must not wait for the peer's delayed ack.
func connFile(fd int) (*os.File, error) {
	if err := syscall.SetNonblock(fd, true); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("setnonblock", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("setsockopt", err)
	}
	return os.NewFile(uintptr(fd), "tcp"), nil
}

// vecWriter writes a run of buffers to a connection with writev. Its iovec
// array is reused from call to call; callers serialise their calls.
type vecWriter struct {
	iov []syscall.Iovec
}

// write sends every byte of bufs on c, in order, under c's write deadline.
// bufs is left as it was.
func (w *vecWriter) write(c conn, bufs [][]byte) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	var werr error
	i, off := 0, 0 // the next byte to write is bufs[i][off]
	err = rc.Write(func(fd uintptr) bool {
		for {
			w.iov = w.iov[:0]
			for j, o := i, off; j < len(bufs) && len(w.iov) < maxIovecs; j, o = j+1, 0 {
				if b := bufs[j][o:]; len(b) > 0 {
					v := syscall.Iovec{Base: &b[0]}
					v.SetLen(len(b))
					w.iov = append(w.iov, v)
				}
			}
			if len(w.iov) == 0 {
				return true
			}
			n, _, e := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
			switch e {
			case 0:
				for left := int(n); left > 0; {
					if k := len(bufs[i]) - off; left < k {
						off += left
						left = 0
					} else {
						left -= k
						i, off = i+1, 0
					}
				}
			case syscall.EINTR:
			case syscall.EAGAIN:
				return false // wait until the socket drains
			default:
				werr = os.NewSyscallError("writev", e)
				return true
			}
		}
	})
	clear(w.iov) // hold no caller's buffer past the call
	return errors.Join(err, werr)
}

// parseIPv4 reads "a.b.c.d:port". Only literals: resolving a name is what
// this file exists to leave out.
func parseIPv4(addr string) (*syscall.SockaddrInet4, error) {
	bad := func() (*syscall.SockaddrInet4, error) {
		return nil, fmt.Errorf("nettrans: address %q is not an IPv4 literal with a port", addr)
	}
	host, port, ok := strings.Cut(addr, ":")
	if !ok {
		return bad()
	}
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		return bad()
	}
	sa := &syscall.SockaddrInet4{Port: int(p)}
	octets := strings.Split(host, ".")
	if len(octets) != 4 {
		return bad()
	}
	for i, o := range octets {
		v, err := strconv.ParseUint(o, 10, 8)
		if err != nil {
			return bad()
		}
		sa.Addr[i] = byte(v)
	}
	return sa, nil
}

func formatIPv4(sa syscall.Sockaddr) string {
	in, ok := sa.(*syscall.SockaddrInet4)
	if !ok {
		return ""
	}
	a := in.Addr
	return fmt.Sprintf("%d.%d.%d.%d:%d", a[0], a[1], a[2], a[3], in.Port)
}
