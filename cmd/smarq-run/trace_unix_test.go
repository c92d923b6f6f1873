//go:build unix

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestTraceToClosedPipe: a -trace path that is a pipe whose reader has
// hung up (the "-trace /dev/stderr | head" case) fails the run with the
// write error instead of blocking it once the pipe fills.
func TestTraceToClosedPipe(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "trace.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skip("mkfifo:", err)
	}
	go func() {
		f, err := os.Open(fifo)
		if err != nil {
			return
		}
		_, _ = f.Read(make([]byte, 64))
		_ = f.Close()
	}()
	var errb bytes.Buffer
	done := make(chan int, 1)
	go func() {
		// About 2000 events, well past a pipe's buffer.
		done <- run([]string{
			"-bench", "equake", "-chaos-seed", "7", "-chaos-host", "-health",
			"-compile-workers", "2", "-trace", fifo,
		}, io.Discard, &errb)
	}()
	select {
	case code := <-done:
		if code != 1 || !strings.Contains(errb.String(), "broken pipe") {
			t.Errorf("exit code %d, want 1 with a broken-pipe error\nstderr:\n%s", code, errb.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run blocked writing a trace nobody reads")
	}
}
