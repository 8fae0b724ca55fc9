package transport

import (
	"context"
	"errors"
	"testing"

	"vfps/internal/wire"
)

// echoMsg is a minimal wire.Message for exercising CodecCaller.
type echoMsg struct {
	N  int64
	BB [][]byte
}

func (m *echoMsg) Fields(f *wire.Fields) {
	f.Int64(1, &m.N)
	f.Blobs(2, &m.BB)
}

// echo decodes an echoMsg request and answers it incremented — the
// decode/encode contract the vfl role handlers implement.
func echo(req []byte) ([]byte, error) {
	var msg echoMsg
	if err := wire.Unmarshal(req, &msg); err != nil {
		return nil, err
	}
	msg.N++
	raw, _ := wire.Marshal(&msg)
	return raw, nil
}

func TestCodecCallerRoundTrip(t *testing.T) {
	var m Memory
	m.Register("peer", func(_ context.Context, _ string, req []byte) ([]byte, error) { return echo(req) })
	var resp echoMsg
	st, err := NewCodecCaller(&m).Invoke(context.Background(), "peer", "echo", &echoMsg{N: 41, BB: [][]byte{{1, 2, 3}}}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.N != 42 {
		t.Errorf("echo returned %d", resp.N)
	}
	if st.Payload != 3 || st.Framing <= 0 {
		t.Errorf("stats %+v, want payload 3 and positive framing", st)
	}
}

func TestCodecCallerRejectsFutureResponseVersion(t *testing.T) {
	var m Memory
	m.Register("peer", func(ctx context.Context, method string, req []byte) ([]byte, error) {
		// A misbehaving peer answering with a version-9 envelope.
		return wire.AppendUvarint([]byte{0x00}, 9), nil
	})
	var resp echoMsg
	var vErr *wire.UnsupportedVersionError
	_, err := NewCodecCaller(&m).Invoke(context.Background(), "peer", "echo", &echoMsg{N: 1}, &resp)
	if !errors.As(err, &vErr) || vErr.Version != 9 {
		t.Fatalf("future response version: got %v, want UnsupportedVersionError{9}", err)
	}
}
