// Package site implements the organizing agent (OA): the per-site server
// that owns a document fragment, answers XPath queries with the
// query-evaluate-gather loop, applies sensor updates, caches answer
// fragments, and participates in ownership migration.
package site

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"irisnet/internal/qeg"
	"irisnet/internal/trace"
)

// Message kinds.
const (
	KindQuery    = "query"    // Query set; returns Fragment
	KindUpdate   = "update"   // Path + Fields/Attrs sensor update
	KindDelegate = "delegate" // Path + NewOwner: start ownership migration
	KindSchema   = "schema"   // Path + Op + Fields: schema change (Section 4)
	KindTake     = "take"     // Path + Fragment: accept ownership (internal)
	KindOK       = "ok"
	KindResult   = "result"
	KindError    = "error"
	// KindBatch carries the N >= 1 subrequests one site sends another in a
	// single message (Entries set): it is the only site-to-site subrequest
	// message. The receiver evaluates every entry against one pinned
	// snapshot and replies with KindBatchResult carrying one entry per
	// request entry, in order, each with its own status and hop span. The
	// batch shares one deadline and one retry budget.
	KindBatch       = "batch"
	KindBatchResult = "batchResult"
	// KindAggregate carries an aggregate query (count/sum/avg/min/max over a
	// path, Query set). The receiver answers with KindAggregateResult whose
	// Agg payload is the compact algebraic partial state for its portion of
	// the hierarchy — count+sum pairs so avg composes, min/max scalars —
	// instead of a raw answer fragment (DESIGN.md §14).
	KindAggregate       = "aggregate"
	KindAggregateResult = "aggregateResult"
	// KindSync seeds a new read replica: Path is the replication root,
	// Fragment the owner's owned data under it encoded as a C1/C2 delta
	// fragment, Paths the owned ID paths (the ownership set a later
	// promotion claims), NewOwner the owner's name, ClockSec the owner
	// commit clock the seed covers (replication.go).
	KindSync = "sync"
	// KindReplicate ships one replication batch on an owner→replica
	// stream: Fragment carries the delta (empty for a pure watermark
	// heartbeat), Seq orders batches within the stream, ClockSec advances
	// the replica's watermark.
	KindReplicate = "replicate"
)

// Per-entry statuses inside a KindBatchResult message.
const (
	// BatchEntryOK marks an entry whose evaluation produced an answer
	// fragment (possibly partial: see BatchEntry.Unreachable).
	BatchEntryOK = "ok"
	// BatchEntryError marks an entry whose evaluation failed outright; the
	// sender splices an unreachable placeholder for just that target, the
	// same way an individual subquery failure surfaces today.
	BatchEntryError = "error"
)

// AggPayload is the aggregate-specific part of a KindAggregateResult
// message (or of a batched aggregate entry): the partial state plus the
// freshness roll-up the combined answer inherits.
type AggPayload struct {
	// Fn is the aggregate function name (count/sum/avg/min/max).
	Fn string `json:"fn"`
	// Partial is the algebraic partial state for the answering site's
	// portion of the hierarchy (already combined with its own subqueries).
	Partial qeg.AggPartial `json:"partial"`
	// AgeMaxSec is the staleness of the partial: the maximum age over every
	// cached unit that contributed, across all contributing sites. The
	// combined answer's staleness is the max over contributing partials.
	AgeMaxSec float64 `json:"ageMaxSec,omitempty"`
}

// BatchEntry is one subquery inside a KindBatch request (Query set) or its
// answer inside a KindBatchResult response (Status plus Fragment, Agg or
// Error). An answer does not echo Kind or Query: answers align by index.
type BatchEntry struct {
	// Kind distinguishes entry families inside one batch: empty or
	// KindQuery for raw subqueries, KindAggregate for aggregate
	// subrequests (answered with Agg instead of Fragment).
	Kind        string      `json:"kindEntry,omitempty"`
	Query       string      `json:"query,omitempty"`
	Status      string      `json:"status,omitempty"`
	Fragment    string      `json:"fragment,omitempty"`
	Unreachable []string    `json:"unreachable,omitempty"`
	Error       string      `json:"error,omitempty"`
	Span        *trace.Span `json:"span,omitempty"`
	// Agg is the aggregate answer of a Kind == KindAggregate entry.
	Agg *AggPayload `json:"agg,omitempty"`
	// Truncated marks an aggregate entry whose gather loop was truncated.
	Truncated bool `json:"truncated,omitempty"`
}

// Message is the wire envelope between sites (and from frontends/sensing
// agents to sites). Fragments travel as XML text, exercising real
// serialization on both ends as the paper's prototype does.
type Message struct {
	Kind     string            `json:"kind"`
	Query    string            `json:"query,omitempty"`
	Fragment string            `json:"fragment,omitempty"`
	Path     string            `json:"path,omitempty"`
	Fields   map[string]string `json:"fields,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	NewOwner string            `json:"newOwner,omitempty"`
	Op       string            `json:"op,omitempty"`
	Paths    []string          `json:"paths,omitempty"`
	Error    string            `json:"error,omitempty"`
	// DeadlineMS propagates the query deadline across sites as a Unix
	// timestamp in milliseconds: each hop derives its remaining budget from
	// it, so a wide-area chain of subqueries shares one deadline instead of
	// resetting it per hop. Zero means no deadline.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
	// Unreachable lists the ID paths of subtrees a partial answer could not
	// cover because their owners did not respond in time (KindResult only).
	Unreachable []string `json:"unreachable,omitempty"`
	// TraceID, when set on a query, enables distributed tracing for it: the
	// ID propagates to every subquery and forward, each hop records a span,
	// and the spans return up the gather path (KindQuery/KindUpdate).
	TraceID string `json:"traceId,omitempty"`
	// Span is this hop's span with its children attached (KindResult only,
	// present iff the request carried a TraceID).
	Span *trace.Span `json:"span,omitempty"`
	// Entries carries the per-subquery payloads of a KindBatch request or
	// the per-entry answers of a KindBatchResult response (same order).
	Entries []BatchEntry `json:"entries,omitempty"`
	// Agg is the partial-aggregate answer of a KindAggregateResult message.
	Agg *AggPayload `json:"agg,omitempty"`
	// Truncated marks a result whose gather loop hit its round bound before
	// converging: the answer covers everything gathered so far, with the
	// still-outstanding subtrees listed in Unreachable (partial answer).
	Truncated bool `json:"truncated,omitempty"`
	// Seq orders KindReplicate batches within one owner→replica stream;
	// a replica applies batches in sequence order and drops duplicates.
	Seq uint64 `json:"seq,omitempty"`
	// ClockSec is the replication watermark a KindSync/KindReplicate
	// message carries: after applying it the replica holds every owner
	// commit stamped before ClockSec on the owner's clock.
	ClockSec float64 `json:"clockSec,omitempty"`
}

// Deadline converts DeadlineMS back to a time; ok is false when unset.
func (m *Message) Deadline() (time.Time, bool) {
	if m.DeadlineMS <= 0 {
		return time.Time{}, false
	}
	return time.UnixMilli(m.DeadlineMS), true
}

// StampDeadline copies the context's deadline (if any) into the message.
func (m *Message) StampDeadline(ctx context.Context) {
	if d, ok := ctx.Deadline(); ok {
		m.DeadlineMS = d.UnixMilli()
	}
}

// Encode marshals the message.
func (m *Message) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// Message fields are plain strings/maps; marshaling cannot fail.
		panic(fmt.Sprintf("site: encoding message: %v", err))
	}
	return b
}

// DecodeMessage unmarshals a message payload.
func DecodeMessage(b []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("site: decoding message: %w", err)
	}
	return &m, nil
}

// errorMessage wraps an error for the wire.
func errorMessage(err error) *Message {
	return &Message{Kind: KindError, Error: err.Error()}
}

// AsError converts an error-kind message back to a Go error.
func (m *Message) AsError() error {
	if m.Kind == KindError {
		return fmt.Errorf("remote: %s", m.Error)
	}
	return nil
}
