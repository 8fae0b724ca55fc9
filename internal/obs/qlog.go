package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"
)

// DefaultSlowRing is the flight-recorder capacity when none is configured:
// the K slowest queries retained for /v1/slow.
const DefaultSlowRing = 32

// PhaseSecs is one named phase latency inside a query event.
type PhaseSecs struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// QueryEvent is one structured accounting record: a single KNN query
// (kind "query") or a whole selection round (kind "selection"). Events are
// written as JSON log lines and fed to the slow-query flight recorder.
type QueryEvent struct {
	Time time.Time `json:"time"`
	// Kind is "query" or "selection".
	Kind string `json:"kind"`
	// ID is the query/selection identifier; for queries it is the same ID
	// propagated in the wire trace-context field.
	ID string `json:"id,omitempty"`
	// Tenant is the consortium instance the work ran under.
	Tenant string `json:"tenant,omitempty"`
	// Trace is the hex trace ID linking the event to its span tree.
	Trace string `json:"trace,omitempty"`
	// Name is the protocol variant or method.
	Name    string  `json:"name,omitempty"`
	Seconds float64 `json:"seconds"`
	// Phases holds the per-phase latency decomposition.
	Phases []PhaseSecs `json:"phases,omitempty"`
	// Attrs carries counts — HE ops, wire/framing bytes, candidates — as
	// flat key/values (JSON sorts map keys, so records are stable).
	Attrs map[string]any `json:"attrs,omitempty"`
}

// QueryLog is the per-query accounting sink: an optional structured JSON
// event log (stdlib log/slog, one line per event) plus a bounded
// flight-recorder ring of the K slowest events, served at /v1/slow. A nil
// *QueryLog no-ops.
type QueryLog struct {
	logger *slog.Logger

	mu   sync.Mutex
	k    int
	slow []QueryEvent
}

// NewQueryLog builds a query log writing JSON lines to w (nil w disables the
// log but keeps the slow ring) retaining the slowK slowest events
// (DefaultSlowRing when <= 0). The slog time attribute is dropped — each
// event carries its own timestamp — so a record is a pure function of the
// event.
func NewQueryLog(w io.Writer, slowK int) *QueryLog {
	if slowK <= 0 {
		slowK = DefaultSlowRing
	}
	q := &QueryLog{k: slowK}
	if w != nil {
		h := slog.NewJSONHandler(w, &slog.HandlerOptions{
			ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
				if len(groups) == 0 && a.Key == slog.TimeKey {
					return slog.Attr{}
				}
				return a
			},
		})
		q.logger = slog.New(h)
	}
	return q
}

// OpenLog resolves a -log-json destination for NewQueryLog: "" is no log
// (a nil writer), "-" and "stdout" mean the given stdout, "stderr" the
// process's stderr, anything else a file opened for append. The returned
// close func is a no-op for the standard streams.
func OpenLog(dest string, stdout io.Writer) (io.Writer, func(), error) {
	switch dest {
	case "":
		return nil, func() {}, nil
	case "-", "stdout":
		return stdout, func() {}, nil
	case "stderr":
		return os.Stderr, func() {}, nil
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("opening query log %s: %w", dest, err)
		}
		return f, func() { f.Close() }, nil
	}
}

// Record emits one event: a JSON log line (when a writer is configured) and a
// slow-ring update. A zero event time is stamped with the current time.
func (q *QueryLog) Record(ev QueryEvent) {
	if q == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if q.logger != nil {
		q.logger.LogAttrs(context.Background(), slog.LevelInfo, ev.Kind, slog.Any("event", ev))
	}
	q.mu.Lock()
	if len(q.slow) < q.k {
		q.slow = append(q.slow, ev)
	} else {
		mi := 0
		for i := range q.slow {
			if q.slow[i].Seconds < q.slow[mi].Seconds {
				mi = i
			}
		}
		if ev.Seconds > q.slow[mi].Seconds {
			q.slow[mi] = ev
		}
	}
	q.mu.Unlock()
}

// Slowest returns the retained events, slowest first (ties broken by time
// then ID for a deterministic dump). Nil-safe.
func (q *QueryLog) Slowest() []QueryEvent {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	out := append([]QueryEvent(nil), q.slow...)
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports the number of retained slow events.
func (q *QueryLog) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.slow)
}

// Cap reports the flight-recorder capacity.
func (q *QueryLog) Cap() int {
	if q == nil {
		return 0
	}
	return q.k
}
