package main

import (
	"bytes"
	"context"
	"hash/maphash"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"irisnet/internal/transport"
)

// meterNet decorates a transport.Network. In every run it counts calls and
// payload bytes (two atomic adds per call); only when a recorder is attached
// (the traced pass) does it also record a span around every CallContext and,
// by wrapping the handler given to Register, around every Site.Handle.
type meterNet struct {
	inner transport.Network

	calls  atomic.Int64
	bytes  atomic.Int64 // request + response payload bytes
	errors atomic.Int64

	rec atomic.Pointer[recorder]

	// Fault injection for the benchmark's own tests, so the checks can be
	// shown to catch a wrong answer and a dropped ack; never set by a real
	// run. A positive corruptAnswerIn makes the Nth query answer lie. A
	// positive dropUpdatesAfter acks every update after the Nth without
	// delivering it (one dropped update could be overwritten by a later one
	// to the same space and rightly go unnoticed).
	corruptAnswerIn  atomic.Int64
	dropUpdatesAfter int64
	updatesSeen      atomic.Int64
}

func newMeterNet(inner transport.Network) *meterNet { return &meterNet{inner: inner} }

// Call implements transport.Network.
func (m *meterNet) Call(site string, payload []byte) ([]byte, error) {
	return m.CallContext(context.Background(), site, payload)
}

// CallContext implements transport.Network.
func (m *meterNet) CallContext(ctx context.Context, site string, payload []byte) ([]byte, error) {
	if m.dropUpdatesAfter > 0 && messageKind(payload) == "update" && m.updatesSeen.Add(1) > m.dropUpdatesAfter {
		return []byte(`{"kind":"ok"}`), nil // acked, never delivered
	}
	rec := m.rec.Load()
	var sp *spanRef
	if rec != nil {
		sp = rec.begin(ctx, spanCall, site, site, payload)
		ctx = withSpan(ctx, sp)
	}
	resp, err := m.inner.CallContext(ctx, site, payload)
	m.calls.Add(1)
	m.bytes.Add(int64(len(payload) + len(resp)))
	if err != nil {
		m.errors.Add(1)
	}
	if rec != nil {
		rec.endCall(sp, payload, resp, err != nil)
	}
	if err == nil && m.corruptAnswerIn.Load() > 0 && messageKind(payload) == "query" && m.corruptAnswerIn.Add(-1) == 0 {
		resp = bytes.ReplaceAll(resp, []byte("parkingSpace"), []byte("parkingSpot"))
	}
	return resp, err
}

// Register implements transport.Network, wrapping the handler so the traced
// pass sees where each site's handling starts and ends.
func (m *meterNet) Register(site string, h transport.Handler) error {
	return m.inner.Register(site, func(ctx context.Context, payload []byte) ([]byte, error) {
		rec := m.rec.Load()
		if rec == nil {
			return h(ctx, payload)
		}
		sp := rec.begin(ctx, spanHandle, messageKind(payload), site, payload)
		resp, err := h(withSpan(ctx, sp), payload)
		rec.end(sp, len(payload), len(resp), err != nil)
		return resp, err
	})
}

// Unregister implements transport.Network.
func (m *meterNet) Unregister(site string) { m.inner.Unregister(site) }

// messageKind reads the kind out of an encoded site.Message without decoding
// it: encoding/json writes struct fields in declaration order and Kind is the
// first field, so every payload starts {"kind":"<kind>".
func messageKind(payload []byte) string {
	const prefix = `{"kind":"`
	if !bytes.HasPrefix(payload, []byte(prefix)) {
		return "other"
	}
	rest := payload[len(prefix):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return string(rest[:i])
	}
	return "other"
}

// Span kinds.
const (
	spanOp     = "op"     // one client operation (QueryFull or Update)
	spanCall   = "call"   // one CallContext through meterNet
	spanHandle = "handle" // one Site.Handle
)

// span is one recorded interval. IDs are 1-based positions in the recorder's
// slice; Parent 0 means none. Times are nanoseconds since the recorder began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Kind   string `json:"kind"`
	Name   string `json:"name"` // op: query|update; call: destination site; handle: message kind
	Site   string `json:"site,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Out    int    `json:"bytes_out,omitempty"`
	In     int    `json:"bytes_in,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

// spanRef is what travels in a context: enough to parent a child span.
type spanRef struct {
	id, op int64
	hash   uint64 // call spans over TCP: payload hash, for handler matching
}

type spanKey struct{}

func withSpan(ctx context.Context, sp *spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

func spanFrom(ctx context.Context) *spanRef {
	sp, _ := ctx.Value(spanKey{}).(*spanRef)
	return sp
}

// exchange is one recorded request/response pair kept for the replay
// metrics.
type exchange struct {
	req, resp []byte
}

// reservoirCap bounds each replay reservoir.
const reservoirCap = 512

// recorder holds the traced pass's spans and payload reservoirs in memory;
// they are written out when the workload ends.
type recorder struct {
	epoch time.Time
	// hashMatch is set over TCP, where a handler starts from a fresh context
	// and has to find its parent call by payload hash.
	hashMatch bool
	seed      maphash.Seed

	mu    sync.Mutex
	spans []span
	// open maps (site, payload hash) to call spans still in flight, for
	// hashMatch.
	open map[openKey][]*spanRef
	rng  *rand.Rand
	// Reservoirs: exchanges started by a client (entry) and exchanges
	// started by a site (sub: their responses carry sub-answer fragments).
	entry, sub         []exchange
	entrySeen, subSeen int
}

type openKey struct {
	site string
	hash uint64
}

func newRecorder(epoch time.Time, seed int64, hashMatch bool) *recorder {
	return &recorder{
		epoch:     epoch,
		hashMatch: hashMatch,
		seed:      maphash.MakeSeed(),
		spans:     make([]span, 0, 1<<16),
		open:      map[openKey][]*spanRef{},
		rng:       rand.New(rand.NewSource(seed)),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginOp opens the span of one client operation.
func (r *recorder) beginOp(op int64, name string) *spanRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Op: op, Kind: spanOp, Name: name, Start: r.now()})
	return &spanRef{id: id, op: op}
}

// begin opens a call or handle span under whatever span the context carries.
// A handler whose context carries none (TCP) adopts the open call span to its
// site with the same payload hash.
func (r *recorder) begin(ctx context.Context, kind, name, site string, payload []byte) *spanRef {
	parent := spanFrom(ctx)
	sp := &spanRef{}
	match := r.hashMatch && (kind == spanCall || parent == nil)
	if match {
		sp.hash = maphash.Bytes(r.seed, payload)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := openKey{site, sp.hash}
	if match && kind == spanHandle {
		if waiting := r.open[key]; len(waiting) > 0 {
			parent = waiting[0]
			r.open[key] = waiting[1:]
		}
	}
	s := span{Kind: kind, Name: name, Site: site, Start: r.now()}
	if parent != nil {
		s.Parent, s.Op = parent.id, parent.op
	}
	s.ID = int64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	sp.id, sp.op = s.ID, s.Op
	if match && kind == spanCall {
		r.open[key] = append(r.open[key], sp)
	}
	return sp
}

func (r *recorder) end(sp *spanRef, out, in int, failed bool) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(sp, now, out, in, failed)
}

func (r *recorder) endLocked(sp *spanRef, now int64, out, in int, failed bool) {
	s := &r.spans[sp.id-1]
	s.End, s.Out, s.In, s.Err = now, out, in, failed
}

// endCall closes a call span, forgets it as a handler parent, and offers the
// exchange to the reservoir of its origin.
func (r *recorder) endCall(sp *spanRef, req, resp []byte, failed bool) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.endLocked(sp, now, len(req), len(resp), failed)
	if r.hashMatch {
		key := openKey{r.spans[sp.id-1].Site, sp.hash}
		waiting := r.open[key]
		for i, w := range waiting {
			if w == sp { // no handler claimed it (the call failed before delivery)
				waiting = append(waiting[:i], waiting[i+1:]...)
				break
			}
		}
		if len(waiting) == 0 {
			delete(r.open, key)
		} else {
			r.open[key] = waiting
		}
	}
	if failed {
		return
	}
	parent := r.spans[sp.id-1].Parent
	fromClient := parent == 0 || r.spans[parent-1].Kind == spanOp
	if fromClient {
		r.entrySeen++
		offer(&r.entry, r.entrySeen, exchange{req, resp}, r.rng)
	} else {
		r.subSeen++
		offer(&r.sub, r.subSeen, exchange{req, resp}, r.rng)
	}
}

// offer is reservoir sampling (algorithm R) with capacity reservoirCap.
func offer(res *[]exchange, seen int, x exchange, rng *rand.Rand) {
	if len(*res) < reservoirCap {
		*res = append(*res, x)
		return
	}
	if j := rng.Intn(seen); j < reservoirCap {
		(*res)[j] = x
	}
}
