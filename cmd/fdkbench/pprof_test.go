package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// An explicit -pprof on a busy port must fail servePprof before any
// benchmark work starts — the CLI fails fast instead of running
// unobservable — and a free port serves pprof as soon as it returns.
func TestServePprofBindFailure(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	if _, err := servePprof(busy.Addr().String()); err == nil {
		t.Fatal("servePprof bound a busy port")
	} else if !strings.Contains(err.Error(), busy.Addr().String()) {
		t.Errorf("bind error %q does not name the address", err)
	}

	ln, err := servePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("GET /debug/pprof/: HTTP %d, %d bytes without the profile index", resp.StatusCode, len(body))
	}
}
