package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoHandler(ctx context.Context, method string, req []byte) ([]byte, error) {
	switch method {
	case "echo":
		return req, nil
	case "upper":
		return []byte(strings.ToUpper(string(req))), nil
	case "fail":
		return nil, errors.New("boom")
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnknownMethod, method)
	}
}

func TestMemoryCall(t *testing.T) {
	var m Memory
	m.Register("node1", echoHandler)
	resp, err := m.Call(context.Background(), "node1", "echo", []byte("hi"))
	if err != nil || string(resp) != "hi" {
		t.Fatalf("echo failed: %v %q", err, resp)
	}
}

func TestMemoryUnknownPeer(t *testing.T) {
	var m Memory
	if _, err := m.Call(context.Background(), "ghost", "echo", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestMemoryHandlerError(t *testing.T) {
	var m Memory
	m.Register("n", echoHandler)
	if _, err := m.Call(context.Background(), "n", "fail", nil); err == nil {
		t.Fatal("expected handler error")
	}
	if _, err := m.Call(context.Background(), "n", "nope", nil); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestMemoryContextCancelled(t *testing.T) {
	var m Memory
	m.Register("n", echoHandler)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Call(ctx, "n", "echo", nil); err == nil {
		t.Fatal("expected context error")
	}
}

func TestMemoryInjectFailure(t *testing.T) {
	var m Memory
	m.Register("n", echoHandler)
	m.InjectFailure("n")
	if _, err := m.Call(context.Background(), "n", "echo", nil); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("want ErrInjectedFailure, got %v", err)
	}
	m.InjectFailure("")
	if _, err := m.Call(context.Background(), "n", "echo", nil); err != nil {
		t.Fatalf("clearing injection failed: %v", err)
	}
}

func TestMemoryStats(t *testing.T) {
	var m Memory
	m.Register("n", echoHandler)
	if _, err := m.Call(context.Background(), "n", "echo", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	s := m.Stats().Snapshot()
	if s.CallsSent != 1 || s.BytesSent != 4 || s.BytesReceived != 4 || s.Errors != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestMemoryConcurrent(t *testing.T) {
	var m Memory
	m.Register("n", echoHandler)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("m%d", i)
			resp, err := m.Call(context.Background(), "n", "echo", []byte(msg))
			if err != nil || string(resp) != msg {
				t.Errorf("call %d: %v %q", i, err, resp)
			}
		}(i)
	}
	wg.Wait()
}

func startTCP(t *testing.T) (*TCPServer, *TCPClient) {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := NewTCPClient(map[string]string{"srv": srv.Addr()})
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestTCPCall(t *testing.T) {
	_, cli := startTCP(t)
	resp, err := cli.Call(context.Background(), "srv", "upper", []byte("hello"))
	if err != nil || string(resp) != "HELLO" {
		t.Fatalf("tcp call: %v %q", err, resp)
	}
}

func TestTCPRemoteError(t *testing.T) {
	_, cli := startTCP(t)
	_, err := cli.Call(context.Background(), "srv", "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "boom") {
		t.Fatalf("want RemoteError boom, got %v", err)
	}
	// The connection must remain usable after a remote error.
	resp, err := cli.Call(context.Background(), "srv", "echo", []byte("ok"))
	if err != nil || string(resp) != "ok" {
		t.Fatalf("connection broken after remote error: %v", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	_, cli := startTCP(t)
	if _, err := cli.Call(context.Background(), "ghost", "echo", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	cli := NewTCPClient(map[string]string{"down": "127.0.0.1:1"})
	defer cli.Close()
	if _, err := cli.Call(context.Background(), "down", "echo", nil); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestTCPLargePayload(t *testing.T) {
	_, cli := startTCP(t)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := cli.Call(context.Background(), "srv", "echo", big)
	if err != nil || len(resp) != len(big) {
		t.Fatalf("large payload: %v len %d", err, len(resp))
	}
	for i := range big {
		if resp[i] != big[i] {
			t.Fatal("payload corrupted")
		}
	}
}

func TestTCPConcurrent(t *testing.T) {
	_, cli := startTCP(t)
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("msg-%d", i)
			resp, err := cli.Call(context.Background(), "srv", "echo", []byte(msg))
			if err != nil || string(resp) != msg {
				t.Errorf("call %d: %v %q", i, err, resp)
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPDeadline(t *testing.T) {
	slow := func(ctx context.Context, method string, req []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return req, nil
	}
	srv, err := ListenTCP("127.0.0.1:0", slow)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewTCPClient(map[string]string{"srv": srv.Addr()})
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(ctx, "srv", "echo", []byte("x")); err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestTCPServerClose(t *testing.T) {
	srv, cli := startTCP(t)
	if _, err := cli.Call(context.Background(), "srv", "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	cli2 := NewTCPClient(map[string]string{"srv": srv.Addr()})
	defer cli2.Close()
	if _, err := cli2.Call(ctx, "srv", "echo", []byte("b")); err == nil {
		t.Fatal("expected error after server close")
	}
}

func TestTCPClientClosed(t *testing.T) {
	_, cli := startTCP(t)
	cli.Close()
	if _, err := cli.Call(context.Background(), "srv", "echo", nil); err == nil {
		t.Fatal("expected closed-client error")
	}
}

func TestTCPStats(t *testing.T) {
	_, cli := startTCP(t)
	if _, err := cli.Call(context.Background(), "srv", "echo", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	s := cli.Stats().Snapshot()
	if s.CallsSent != 1 || s.BytesSent != 5 || s.BytesReceived != 5 || s.Errors != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// A length header beyond the sanity bound must be rejected before any
	// allocation attempt.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := readFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("expected oversized-frame error")
	}
}

func TestWriteReadFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip: %v %q", err, got)
	}
	// Empty frames are legal.
	buf.Reset()
	if err := writeFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := readFrame(&buf); err != nil || len(got) != 0 {
		t.Fatalf("empty frame: %v %q", err, got)
	}
}
