package main

import (
	"context"
	"errors"

	"vfps/internal/transport"
	"vfps/internal/vfl"
)

// wrapFunc decorates a role handler (kindHandler) or a bridge forwarder
// (kindForward); the traced pass passes recorder.timed, the timed pass nil.
type wrapFunc func(kind, role string, h transport.Handler) transport.Handler

// roleHandlers lists the roles on a selection's hot path — the aggregation
// server and every party — with the handler each serves. The key server is
// only called while the cluster is built.
func roleHandlers(cl *vfl.Cluster) map[string]transport.Handler {
	roles := map[string]transport.Handler{vfl.AggServerName: cl.Agg.Handler()}
	for i, name := range cl.PartyNames() {
		roles[name] = cl.Parties[i].Handler()
	}
	return roles
}

// instrument re-registers every role's handler on the cluster transport
// wrapped by wrap, without moving it off the in-memory transport.
func instrument(cl *vfl.Cluster, wrap wrapFunc) {
	for name, h := range roleHandlers(cl) {
		cl.Transport.Register(name, wrap(kindHandler, name, h))
	}
}

// bridge is a cluster whose roles each sit behind a real loopback socket.
type bridge struct {
	servers []*transport.TCPServer
	// clients holds one TCP client per role, so Stats() reads per role.
	clients map[string]*transport.TCPClient
}

// bridgeCluster serves every role's handler on its own 127.0.0.1:0 listener
// and replaces the role's registration on the cluster's in-memory transport
// with a forwarder that calls through a TCP client. The roles were wired by
// vfl.NewLocalCluster and keep calling cl.Transport, so from then on every
// leader→aggregator, leader→party and aggregator→party message crosses
// transport framing and a socket. It depends on no role constructor.
func bridgeCluster(cl *vfl.Cluster, wrap wrapFunc) (*bridge, error) {
	if wrap == nil {
		wrap = func(_, _ string, h transport.Handler) transport.Handler { return h }
	}
	b := &bridge{clients: map[string]*transport.TCPClient{}}
	for name, h := range roleHandlers(cl) {
		srv, err := transport.ListenTCP("127.0.0.1:0", wrap(kindHandler, name, h))
		if err != nil {
			b.Close()
			return nil, err
		}
		b.servers = append(b.servers, srv)
		client := transport.NewTCPClient(map[string]string{name: srv.Addr()})
		b.clients[name] = client
		cl.Transport.Register(name, wrap(kindForward, name,
			func(ctx context.Context, method string, req []byte) ([]byte, error) {
				return client.Call(ctx, name, method, req)
			}))
	}
	return b, nil
}

// bytes sums request and response bytes over every role's client.
func (b *bridge) bytes() int64 {
	var n int64
	for _, c := range b.clients {
		s := c.Stats().Snapshot()
		n += s.BytesSent + s.BytesReceived
	}
	return n
}

// Close drops the pooled connections, stops the listeners and waits for
// their serving goroutines.
func (b *bridge) Close() error {
	var errs []error
	for _, c := range b.clients {
		errs = append(errs, c.Close())
	}
	for _, s := range b.servers {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}
