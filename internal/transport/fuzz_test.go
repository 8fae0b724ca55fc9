package transport

import (
	"bytes"
	"testing"
)

// FuzzReadRequest ensures arbitrary wire bytes never panic the server-side
// request parser, and that well-formed requests round-trip.
func FuzzReadRequest(f *testing.F) {
	var good bytes.Buffer
	if err := writeRequest(&good, "echo", []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	// A real encoding/gob stream where a framed request should be.
	f.Add([]byte{
		0x1a, 0x7f, 0x03, 0x01, 0x01, 0x05, 0x48, 0x65, 0x6c, 0x6c, 0x6f, 0x01, 0xff, 0x80, 0x00, 0x01,
		0x01, 0x01, 0x03, 0x4d, 0x61, 0x78, 0x01, 0x06, 0x00, 0x00, 0x00, 0x05, 0xff, 0x80, 0x01, 0x01, 0x00,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		method, body, err := readRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Parsed requests must re-serialise to a parseable request.
		var buf bytes.Buffer
		if err := writeRequest(&buf, method, body); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		m2, b2, err := readRequest(bytes.NewReader(buf.Bytes()))
		if err != nil || m2 != method || !bytes.Equal(b2, body) {
			t.Fatalf("round trip mismatch: %v", err)
		}
	})
}

// FuzzReadResponse mirrors FuzzReadRequest for the response path.
func FuzzReadResponse(f *testing.F) {
	var ok bytes.Buffer
	if err := writeResponse(&ok, []byte("result"), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	var fail bytes.Buffer
	if err := writeResponse(&fail, nil, &RemoteError{Msg: "boom"}); err != nil {
		f.Fatal(err)
	}
	f.Add(fail.Bytes())
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = readResponse(bytes.NewReader(data))
	})
}
