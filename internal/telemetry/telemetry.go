package telemetry

import (
	"fmt"
	"io"
	"sync"
)

// Telemetry bundles the two observability surfaces a run can enable
// independently: the cycle-stamped event tracer and the aggregating
// metrics registry. A nil *Telemetry (or nil fields) disables the
// corresponding surface; every consumer nil-checks before emitting.
type Telemetry struct {
	Events  *Tracer
	Metrics *Registry
}

// Tracer returns the event tracer (nil when tracing is disabled).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.Events
}

// Registry returns the metrics registry (nil when metrics are disabled).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.Metrics
}

// LineSink is a mutex-guarded line writer for human-oriented progress
// output (the figure harness's verbose stream). Each Emitf call writes
// one whole line atomically, so concurrent runs never interleave
// mid-line; errors are sticky and silently swallowed — progress output
// must never abort a run.
type LineSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewLineSink wraps w. A nil *LineSink is a valid disabled sink.
func NewLineSink(w io.Writer) *LineSink { return &LineSink{w: w} }

// Emitf formats one line (a trailing newline is appended) and writes it
// under the lock. Safe on a nil sink.
func (s *LineSink) Emitf(format string, args ...interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	_, s.err = fmt.Fprintf(s.w, format+"\n", args...)
}

// Err returns the first write error.
func (s *LineSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
