package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestQueryLogGoldenJSON pins the exact JSON line one event produces: the
// record is a pure function of the event (the slog time attribute is
// dropped), so downstream parsers (scripts/soak.sh) can rely on the shape.
func TestQueryLogGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	q := NewQueryLog(&buf, 4)
	q.Record(QueryEvent{
		Time:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Kind:    "query",
		ID:      "q-00000001",
		Tenant:  "c1",
		Trace:   "000102030405060708090a0b0c0d0e0f",
		Seconds: 0.25,
		Phases: []PhaseSecs{
			{Name: "collect", Seconds: 0.2},
			{Name: "sums", Seconds: 0.05},
		},
		Attrs: map[string]any{"k": 10, "variant": "fagin"},
	})
	want := `{"level":"INFO","msg":"query","event":{"time":"2026-01-02T03:04:05Z","kind":"query","id":"q-00000001","tenant":"c1","trace":"000102030405060708090a0b0c0d0e0f","seconds":0.25,"phases":[{"name":"collect","seconds":0.2},{"name":"sums","seconds":0.05}],"attrs":{"k":10,"variant":"fagin"}}}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("query-log record mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestQueryLogSlowRing(t *testing.T) {
	q := NewQueryLog(nil, 3)
	for i := 1; i <= 10; i++ {
		q.Record(QueryEvent{Kind: "query", ID: fmt.Sprintf("q-%02d", i), Seconds: float64(i)})
	}
	if q.Cap() != 3 || q.Len() != 3 {
		t.Fatalf("ring cap=%d len=%d, want 3/3", q.Cap(), q.Len())
	}
	slow := q.Slowest()
	if len(slow) != 3 || slow[0].Seconds != 10 || slow[1].Seconds != 9 || slow[2].Seconds != 8 {
		t.Fatalf("slowest = %+v, want 10,9,8", slow)
	}
	// A faster event must not displace a retained slow one.
	q.Record(QueryEvent{Kind: "query", ID: "q-fast", Seconds: 0.001})
	if got := q.Slowest(); got[2].Seconds != 8 {
		t.Fatalf("fast event displaced a slow one: %+v", got)
	}
}

func TestQueryLogDefaultsAndNil(t *testing.T) {
	if got := NewQueryLog(nil, 0).Cap(); got != DefaultSlowRing {
		t.Fatalf("default slow ring = %d, want %d", got, DefaultSlowRing)
	}
	var q *QueryLog
	q.Record(QueryEvent{Kind: "query"}) // must not panic
	if q.Slowest() != nil || q.Len() != 0 || q.Cap() != 0 {
		t.Fatal("nil QueryLog must report empty")
	}
}

// TestQueryLogConcurrentWriters hammers Record and Slowest from many
// goroutines (run with -race); the ring must stay bounded and retain the
// globally slowest events.
func TestQueryLogConcurrentWriters(t *testing.T) {
	var buf safeBuffer
	q := NewQueryLog(&buf, 8)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Record(QueryEvent{
					Kind:    "query",
					ID:      fmt.Sprintf("q-%d-%d", w, i),
					Seconds: float64(w*per + i),
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = q.Slowest()
		}
	}()
	wg.Wait()
	<-done
	slow := q.Slowest()
	if len(slow) != 8 {
		t.Fatalf("retained %d events, want 8", len(slow))
	}
	// The slowest seconds values are the 8 largest written: 1592..1599.
	for i, ev := range slow {
		if want := float64(workers*per - 1 - i); ev.Seconds != want {
			t.Fatalf("slow[%d].Seconds = %v, want %v", i, ev.Seconds, want)
		}
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != workers*per {
		t.Fatalf("log wrote %d lines, want %d", lines, workers*per)
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer (slog handlers serialize writes,
// but the test reads it back after the fact).
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestOpenLog covers every -log-json destination: no log, the given stdout
// (two spellings), stderr, a file opened for append, and a path that cannot
// be opened.
func TestOpenLog(t *testing.T) {
	var stdout bytes.Buffer
	dir := t.TempDir()
	file := filepath.Join(dir, "q.log")
	for _, tc := range []struct {
		dest string
		want io.Writer // nil: no log; ignored for the file cases
		file bool
		fail bool
	}{
		{dest: ""},
		{dest: "-", want: &stdout},
		{dest: "stdout", want: &stdout},
		{dest: "stderr", want: os.Stderr},
		{dest: file, file: true},
		{dest: file, file: true}, // reopened: appends
		{dest: filepath.Join(dir, "missing", "q.log"), fail: true},
	} {
		w, closeLog, err := OpenLog(tc.dest, &stdout)
		if tc.fail {
			if err == nil {
				t.Errorf("OpenLog(%q) opened an unopenable path", tc.dest)
			}
			continue
		}
		if err != nil {
			t.Fatalf("OpenLog(%q): %v", tc.dest, err)
		}
		if tc.file {
			if _, err := io.WriteString(w, "line\n"); err != nil {
				t.Fatal(err)
			}
		} else if w != tc.want {
			t.Errorf("OpenLog(%q) = %v, want %v", tc.dest, w, tc.want)
		}
		closeLog()
	}
	got, err := os.ReadFile(file)
	if err != nil || string(got) != "line\nline\n" {
		t.Fatalf("query log file holds %q (%v), want two appended lines", got, err)
	}
}
