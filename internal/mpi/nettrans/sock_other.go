//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package nettrans

import (
	"errors"
	"os"
	"time"
)

// The socket layer (sock_unix.go) speaks to the kernel through the BSD
// socket calls and writev of package syscall. Elsewhere the package builds,
// and a socket world fails to form.
var errNoSockets = errors.New("nettrans: no socket transport on this system")

type listener struct {
	addr string
}

func listenTCP(string) (*listener, error) { return nil, errNoSockets }

func (l *listener) Accept() (*os.File, error) { return nil, errNoSockets }

func (l *listener) Close() error { return nil }

func dialTCP(string, time.Duration) (*os.File, error) { return nil, errNoSockets }

type vecWriter struct{}

func (vecWriter) write(c conn, bufs [][]byte) error {
	for _, b := range bufs {
		if _, err := c.Write(b); err != nil {
			return err
		}
	}
	return nil
}
