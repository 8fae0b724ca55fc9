package vfl

import (
	"context"
	"sync/atomic"

	"vfps/internal/costmodel"
	"vfps/internal/obs"
)

// roleObs is the observer slot and cost counter embedded in every protocol
// role. The pointer is loaded once per instrumented operation, so an unset
// observer costs one atomic load and the nil-safe no-op path of internal/obs.
type roleObs struct {
	o atomic.Pointer[obs.Observer]
	// counts is the role's cumulative operation counter, never reset; it
	// feeds only the vfps_cost_ops gauges. What one call or selection cost
	// is summed in the accumulator its ctx carries (see charge).
	counts costmodel.Counts
}

// charge books r to the role's counter and to the accumulator ctx carries.
func (r *roleObs) charge(ctx context.Context, raw costmodel.Raw) {
	r.counts.Add(raw)
	costmodel.Charge(ctx, raw)
}

func (r *roleObs) store(o *obs.Observer) { r.o.Store(o) }

// Observer returns the installed observer (nil when observability is off).
func (r *roleObs) Observer() *obs.Observer { return r.o.Load() }

func (r *roleObs) tracer() *obs.Tracer { return r.o.Load().Tracer() }

// Span names emitted by the protocol roles. The leader's spans parent the
// aggregation-server and participant spans through the request context on the
// in-memory transport, so one query renders as a tree.
const (
	SpanQuery        = "vfl.query"        // leader: one KNN query
	SpanDecrypt      = "vfl.decrypt"      // leader: candidate vector decryption
	SpanNeighborSums = "vfl.neighborSums" // leader: plaintext partial-sum fan-out
	SpanTAScan       = "vfl.taScan"       // leader: Threshold-Algorithm scan
	SpanCollectAll   = "agg.collectAll"   // aggserver: BASE variant collection
	SpanFagin        = "agg.fagin"        // aggserver: Fagin scan + aggregation
	SpanAggregate    = "agg.aggregate"    // aggserver: candidate aggregation
	SpanFrontier     = "agg.frontier"     // aggserver: TA frontier bound
	SpanReduce       = "agg.reduce"       // aggserver: ciphertext tree reduction
	SpanDistances    = "party.distances"  // participant: distance+ranking compute
	SpanEncrypt      = "party.encrypt"    // participant: item encryption sweep
)
