package site

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"irisnet/internal/trace"
)

// escapedResult is an answer whose XML text carries every character JSON's
// HTML escaping rewrites, both raw and as XML entities.
func escapedResult(i int) *Message {
	return &Message{
		Kind: KindResult,
		Fragment: fmt.Sprintf(`<block id="%d" status="complete"><note>a &lt; b &amp;&amp; c &gt; d</note>`+
			`<price>%d</price></block>`, i, i),
		Unreachable: []string{fmt.Sprintf("/block[@id='%d']", i+1)},
		Span:        &trace.Span{TraceID: "t", Site: "s<&>"},
	}
}

// TestEncodeWritesXMLUnescaped pins the envelope encoding: fragments travel
// without JSON's HTML escaping, decode back to the same message, and every
// message starts with its kind (benchmark/meter.go reads the kind from the
// first bytes).
func TestEncodeWritesXMLUnescaped(t *testing.T) {
	m := escapedResult(1)
	b := m.Encode()
	for _, esc := range []string{"\\u003c", "\\u003e", "\\u0026"} {
		if bytes.Contains(b, []byte(esc)) {
			t.Errorf("encoding holds the escape %s: %s", esc, b)
		}
	}
	std, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= len(std) {
		t.Errorf("unescaped encoding is %d bytes, escaped %d", len(b), len(std))
	}
	got, err := DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip changed the message:\n got  %+v\n want %+v", got, m)
	}

	for _, kind := range []string{KindQuery, KindUpdate, KindDelegate, KindSchema, KindTake, KindOK,
		KindResult, KindError, KindBatch, KindBatchResult, KindAggregate, KindAggregateResult, ""} {
		b := (&Message{Kind: kind, Query: "/a[b < 3]", Fragment: "<a/>", Truncated: true}).Encode()
		if !bytes.HasPrefix(b, []byte(`{"kind":"`)) {
			t.Errorf("kind %q encodes as %s", kind, b)
		}
		if b[len(b)-1] != '}' {
			t.Errorf("kind %q encoding does not end its object: %q", kind, b)
		}
	}
}

// TestEncodeConcurrent runs the pooled encoders from many goroutines; under
// -race it checks that no two encodings share a buffer.
func TestEncodeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := escapedResult(g*1000 + i)
				b := m.Encode()
				got, err := DecodeMessage(b)
				if err != nil || !reflect.DeepEqual(got, m) {
					t.Errorf("goroutine %d message %d: decoded %+v (err %v) from %s", g, i, got, err, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
