// Package transport carries the VFL protocol messages between the system
// roles (participants, aggregation server, leader, key server). It replaces
// the paper's proto3/gRPC stack with a stdlib-only request/response
// abstraction and two implementations: an in-process transport for
// single-binary runs and tests, and a TCP transport with length-framed
// messages for genuinely distributed deployments (cmd/vfpsnode). Message
// bodies are opaque here; CodecCaller layers the internal/wire encoding on
// top of either transport.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vfps/internal/obs"
)

// Handler processes one request addressed to a node and returns the response
// payload. Handlers must be safe for concurrent use.
type Handler func(ctx context.Context, method string, req []byte) ([]byte, error)

// Caller issues requests to named peers.
type Caller interface {
	// Call sends req to the peer's handler for method and returns its
	// response, honouring ctx cancellation.
	Call(ctx context.Context, peer, method string, req []byte) ([]byte, error)
}

// Stats counts traffic through a transport endpoint; the cost model uses
// these to account communication (η in the paper's cost analysis). Both
// transports record the same counters on the same events: CallsSent and
// BytesSent when a call is dispatched (even if it subsequently fails),
// BytesReceived when a successful response arrives, and Errors whenever Call
// returns a non-nil error — so error rate is Errors/CallsSent on any
// transport.
type Stats struct {
	CallsSent     atomic.Int64
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64
	Errors        atomic.Int64
}

// StatsSnapshot is a plain-value copy of the counters.
type StatsSnapshot struct {
	CallsSent     int64
	BytesSent     int64
	BytesReceived int64
	Errors        int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		CallsSent:     s.CallsSent.Load(),
		BytesSent:     s.BytesSent.Load(),
		BytesReceived: s.BytesReceived.Load(),
		Errors:        s.Errors.Load(),
	}
}

// ErrUnknownPeer reports a Call to a peer that is not registered.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrUnknownMethod reports a request for a method the node does not serve.
var ErrUnknownMethod = errors.New("transport: unknown method")

// Memory is an in-process transport: a registry of named handlers.
// The zero value is ready to use.
type Memory struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	stats    Stats
	ins      atomic.Pointer[instruments]
	// FailPeer, when non-empty, makes calls to that peer fail with
	// ErrInjectedFailure — used by failure-injection tests.
	failPeer atomic.Value // string
}

// SetObserver installs metrics and tracing on the transport: per-peer and
// per-method call counters, latency and payload-size histograms, plus an
// "rpc" span per call when the observer carries a tracer. A nil observer
// restores the no-op default.
func (m *Memory) SetObserver(o *obs.Observer) {
	m.ins.Store(newInstruments(o, "memory"))
}

// ErrInjectedFailure is returned for peers marked faulty via InjectFailure.
var ErrInjectedFailure = errors.New("transport: injected failure")

// Register installs the handler serving the given node name, replacing any
// previous registration.
func (m *Memory) Register(name string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.handlers == nil {
		m.handlers = make(map[string]Handler)
	}
	m.handlers[name] = h
}

// Unregister removes the handler serving the given node name, so the
// transport no longer keeps the node's state reachable; later calls to the
// name fail with ErrUnknownPeer. Unknown names are a no-op.
func (m *Memory) Unregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, name)
}

// InjectFailure makes subsequent calls to the named peer fail; an empty name
// clears the injection.
func (m *Memory) InjectFailure(peer string) { m.failPeer.Store(peer) }

// Call dispatches directly to the registered handler.
func (m *Memory) Call(ctx context.Context, peer, method string, req []byte) ([]byte, error) {
	m.stats.CallsSent.Add(1)
	m.stats.BytesSent.Add(int64(len(req)))
	ins := m.ins.Load()
	start := time.Now()
	ctx, sp := ins.span(ctx, peer, method)
	resp, err := m.dispatch(ctx, peer, method, req)
	ins.record(peer, method, len(req), len(resp), start, err)
	sp.End()
	if err != nil {
		m.stats.Errors.Add(1)
		return nil, err
	}
	m.stats.BytesReceived.Add(int64(len(resp)))
	return resp, nil
}

func (m *Memory) dispatch(ctx context.Context, peer, method string, req []byte) ([]byte, error) {
	if fp, _ := m.failPeer.Load().(string); fp != "" && fp == peer {
		return nil, fmt.Errorf("calling %s: %w", peer, ErrInjectedFailure)
	}
	m.mu.RLock()
	h, ok := m.handlers[peer]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPeer, peer)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h(ctx, method, req)
}

// Stats exposes the traffic counters.
func (m *Memory) Stats() *Stats { return &m.stats }
