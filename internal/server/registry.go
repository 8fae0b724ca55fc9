package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vfps"
)

// entry is one live consortium plus the bookkeeping the multiplexing layer
// needs: a per-consortium run lock (protocol runs mutate per-run state —
// delta caches, pack negotiation — so two selections on the SAME consortium
// must serialize, while selections on different consortiums proceed
// concurrently), an in-flight count that fences idle-TTL eviction, and the
// last-used timestamp the janitor ages against.
type entry struct {
	id   string
	cons *vfps.Consortium
	// runMu serializes selection/reward protocol runs on this consortium.
	runMu sync.Mutex
	// inflight counts handlers currently holding the entry. The janitor only
	// evicts entries with inflight == 0, and acquire increments under the
	// registry mutex, so an entry can never be evicted between lookup and use.
	inflight atomic.Int32
	lastUsed atomic.Int64 // unix nanos
}

// release marks one handler done with the entry and refreshes its idle clock.
func (e *entry) release() {
	e.lastUsed.Store(time.Now().UnixNano())
	e.inflight.Add(-1)
}

// registry is the concurrent consortium table. It replaces the old
// one-big-server-mutex design: the registry lock covers only map surgery;
// protocol runs hold per-entry locks.
type registry struct {
	mu      sync.Mutex
	nextID  int
	entries map[string]*entry
}

func newRegistry() *registry {
	return &registry{entries: map[string]*entry{}}
}

// allocID reserves the next caller-visible consortium id.
func (g *registry) allocID() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	return fmt.Sprintf("c%d", g.nextID)
}

// add registers a freshly built consortium under id.
func (g *registry) add(id string, cons *vfps.Consortium) *entry {
	e := &entry{id: id, cons: cons}
	e.lastUsed.Store(time.Now().UnixNano())
	g.mu.Lock()
	g.entries[id] = e
	g.mu.Unlock()
	return e
}

// acquire looks up id and pins the entry against eviction. Callers must
// e.release() when done.
func (g *registry) acquire(id string) (*entry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.entries[id]
	if !ok {
		return nil, false
	}
	e.inflight.Add(1)
	return e, true
}

// remove unlinks id from the table and returns the entry for teardown; new
// requests 404 immediately while the caller waits out in-flight runs.
func (g *registry) remove(id string) (*entry, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.entries[id]
	if ok {
		delete(g.entries, id)
	}
	return e, ok
}

// expire unlinks every idle entry older than ttl and returns them for
// teardown. Entries with in-flight handlers are skipped (the handler's
// release refreshes lastUsed, so they age from their last use).
func (g *registry) expire(ttl time.Duration) []*entry {
	cutoff := time.Now().Add(-ttl).UnixNano()
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*entry
	for id, e := range g.entries {
		if e.inflight.Load() == 0 && e.lastUsed.Load() < cutoff {
			delete(g.entries, id)
			out = append(out, e)
		}
	}
	return out
}

// drainAll unlinks every entry (server shutdown).
func (g *registry) drainAll() []*entry {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*entry, 0, len(g.entries))
	for id, e := range g.entries {
		delete(g.entries, id)
		out = append(out, e)
	}
	return out
}
