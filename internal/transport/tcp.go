package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vfps/internal/obs"
	"vfps/internal/wire"
)

// Wire format, both directions, all integers big-endian:
//
//	request:  u32 methodLen | method | u32 bodyLen | body
//	response: u8 status (0 ok, 1 error) | u32 bodyLen | body
//
// Error responses carry the error text as the body. Each connection serves
// one request at a time; the client keeps a small pool per peer so
// concurrent calls do not serialise.

const maxFrame = 1 << 30 // 1 GiB sanity bound on any length field

// TCPServer serves a node's handler over a TCP listener.
type TCPServer struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}

	served    *obs.CounterVec
	serveSecs *obs.HistogramVec
	obsOn     atomic.Bool
	tracer    atomic.Pointer[obs.Tracer]
}

// SetObserver installs per-method served-request counters, handler latency
// histograms and (when the observer traces) an "rpc.serve" span per request
// on the server side.
func (s *TCPServer) SetObserver(o *obs.Observer) {
	s.mu.Lock()
	s.served, s.serveSecs = serverFamilies(o.Registry())
	s.mu.Unlock()
	s.obsOn.Store(o.Registry() != nil)
	if t := o.Tracer(); t != nil {
		s.tracer.Store(t)
	}
}

// ListenTCP starts serving handler on addr (e.g. "127.0.0.1:0") and returns
// the server; its Addr method reports the bound address.
func ListenTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		method, body, err := readRequest(conn)
		if err != nil {
			return // EOF or protocol error: drop the connection
		}
		start := time.Now()
		// Extract the caller's trace context from the envelope so handler
		// spans (and any further outbound calls) link under the caller's
		// span; requests without the field serve with a bare context.
		ctx := context.Background()
		if tc, ok := wire.ExtractTraceContext(body); ok {
			ctx = obs.ContextWithRemoteParent(ctx, obs.SpanContext{Trace: obs.TraceID(tc.Trace), Span: tc.Span})
			ctx = obs.ContextWithQueryID(ctx, tc.Query)
		}
		ctx, ssp := s.tracer.Load().Start(ctx, "rpc.serve")
		ssp.SetLabel("method", method)
		resp, herr := s.handler(ctx, method, body)
		ssp.End()
		if s.obsOn.Load() {
			s.mu.Lock()
			served, secs := s.served, s.serveSecs
			s.mu.Unlock()
			served.With(method).Inc()
			secs.With(method).ObserveSince(start)
		}
		if werr := writeResponse(conn, resp, herr); werr != nil {
			return
		}
	}
}

// Close stops accepting, closes open connections and waits for in-flight
// requests.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// TCPClient issues calls to peers identified by name, using a static
// name→address directory and a per-peer connection pool.
type TCPClient struct {
	directory map[string]string
	mu        sync.Mutex
	pools     map[string][]net.Conn
	stats     Stats
	ins       atomic.Pointer[instruments]
	closed    bool
}

// SetObserver installs metrics and tracing on the client: the same per-peer
// and per-method families as the Memory transport, labelled transport="tcp".
func (c *TCPClient) SetObserver(o *obs.Observer) {
	c.ins.Store(newInstruments(o, "tcp"))
}

// NewTCPClient builds a client over a name→"host:port" directory.
func NewTCPClient(directory map[string]string) *TCPClient {
	dir := make(map[string]string, len(directory))
	for k, v := range directory {
		dir[k] = v
	}
	return &TCPClient{directory: dir, pools: make(map[string][]net.Conn)}
}

func (c *TCPClient) getConn(peer string) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("transport: client closed")
	}
	addr, ok := c.directory[peer]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	pool := c.pools[peer]
	if n := len(pool); n > 0 {
		conn := pool[n-1]
		c.pools[peer] = pool[:n-1]
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (%s): %w", peer, addr, err)
	}
	return conn, nil
}

func (c *TCPClient) putConn(peer string, conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.pools[peer]) >= 4 {
		conn.Close()
		return
	}
	c.pools[peer] = append(c.pools[peer], conn)
}

// Call implements Caller over TCP. A context deadline, if set, bounds the
// whole exchange.
func (c *TCPClient) Call(ctx context.Context, peer, method string, req []byte) ([]byte, error) {
	c.stats.CallsSent.Add(1)
	c.stats.BytesSent.Add(int64(len(req)))
	ins := c.ins.Load()
	start := time.Now()
	_, sp := ins.span(ctx, peer, method)
	resp, err := c.exchange(ctx, peer, method, req)
	ins.record(peer, method, len(req), len(resp), start, err)
	sp.End()
	if err != nil {
		c.stats.Errors.Add(1)
		return nil, err
	}
	c.stats.BytesReceived.Add(int64(len(resp)))
	return resp, nil
}

func (c *TCPClient) exchange(ctx context.Context, peer, method string, req []byte) ([]byte, error) {
	conn, err := c.getConn(peer)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(dl); err != nil {
			conn.Close()
			return nil, err
		}
	} else if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeRequest(conn, method, req); err != nil {
		conn.Close()
		return nil, err
	}
	resp, rerr, err := readResponse(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.putConn(peer, conn)
	if rerr != nil {
		return nil, rerr
	}
	return resp, nil
}

// Stats exposes traffic counters.
func (c *TCPClient) Stats() *Stats { return &c.stats }

// Close drops all pooled connections.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, pool := range c.pools {
		for _, conn := range pool {
			conn.Close()
		}
	}
	c.pools = map[string][]net.Conn{}
	return nil
}

func writeRequest(w io.Writer, method string, body []byte) error {
	if err := writeFrame(w, []byte(method)); err != nil {
		return err
	}
	return writeFrame(w, body)
}

func readRequest(r io.Reader) (method string, body []byte, err error) {
	m, err := readFrame(r)
	if err != nil {
		return "", nil, err
	}
	b, err := readFrame(r)
	if err != nil {
		return "", nil, err
	}
	return string(m), b, nil
}

func writeResponse(w io.Writer, body []byte, herr error) error {
	status := []byte{0}
	if herr != nil {
		status[0] = 1
		body = []byte(herr.Error())
	}
	if _, err := w.Write(status); err != nil {
		return err
	}
	return writeFrame(w, body)
}

// RemoteError is a handler error propagated across the TCP transport; only
// its text survives the wire.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Msg }

func readResponse(r io.Reader) (body []byte, remote error, err error) {
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return nil, nil, err
	}
	b, err := readFrame(r)
	if err != nil {
		return nil, nil, err
	}
	if status[0] != 0 {
		return nil, &RemoteError{Msg: string(b)}, nil
	}
	return b, nil, nil
}

func writeFrame(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}
