package site

import (
	"context"
	"strings"
	"testing"

	"irisnet/internal/qeg"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
)

// Golden wire fixtures: what a city site sends its block site for each
// subrequest shape, byte for byte, and the canned answers it gets back.
// Deadlines and trace IDs are absent, so every byte is a function of the
// query alone.
const (
	goldenSpine   = `/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='City0']`
	goldenBlockQ0 = goldenSpine + `/neighborhood[@id='NBHD0']/block[@id='1']/parkingSpace[(available = \"yes\")]`
	goldenBlockQ1 = goldenSpine + `/neighborhood[@id='NBHD1']/block[@id='1']/parkingSpace[(available = \"yes\")]`
	goldenPriceQ0 = goldenSpine + `/neighborhood[@id='NBHD0']/block[@id='1']/parkingSpace/price`
	goldenPriceQ1 = goldenSpine + `/neighborhood[@id='NBHD1']/block[@id='1']/parkingSpace/price`

	goldenReqSingle    = `{"kind":"batch","entries":[{"query":"` + goldenBlockQ0 + `"}]}`
	goldenReqBatch     = `{"kind":"batch","entries":[{"query":"` + goldenBlockQ0 + `"},{"query":"` + goldenBlockQ1 + `"}]}`
	goldenReqAggSingle = `{"kind":"batch","entries":[{"kindEntry":"aggregate","query":"count(` + goldenPriceQ0 + `)"}]}`
	goldenReqAggBatch  = `{"kind":"batch","entries":[{"kindEntry":"aggregate","query":"sum(` + goldenPriceQ0 + `)"},{"kindEntry":"aggregate","query":"sum(` + goldenPriceQ1 + `)"}]}`
)

// goldenBlockAnswer is a block site's answer fragment for block 1 of one
// neighborhood: the ID spine down to the block plus one space's data.
func goldenBlockAnswer(nb, price string) string {
	return `<usRegion id="NE" status="id-complete"><state id="PA" status="id-complete">` +
		`<county id="Allegheny" status="id-complete"><city id="City0" status="id-complete">` +
		`<neighborhood id="` + nb + `" status="id-complete"><block id="1" status="complete">` +
		`<parkingSpace id="1" status="complete"><available>yes</available><price>` + price + `</price></parkingSpace>` +
		`</block></neighborhood></city></county></state></usRegion>`
}

// TestWireGolden pins the subrequest wire format and the decoding of the
// answers: for a raw and an aggregate query, each with one subrequest (a
// one-entry batch) and with two to the same owner (one batch), the bytes the
// dispatcher emits and the answer assembled from canned replies are compared
// against fixed values.
func TestWireGolden(t *testing.T) {
	cityName := "city-" + workload.CityName(0)
	blocksName := "blocks-" + workload.CityName(0)
	d := deployShared(t, false, transport.SimConfig{}, nil)
	city := d.db.CityPath(0).String()
	lost := d.db.BlockPath(0, 1, 0).Child("parkingSpace", "9").Key()

	cases := []struct {
		name, kind, query string
		wantReq           string
		reply             *Message
		want              *Message
	}{
		{
			name: "raw single", kind: KindQuery, query: d.db.BlockQuery(0, 0, 0),
			wantReq: goldenReqSingle,
			reply: &Message{Kind: KindBatchResult, Entries: []BatchEntry{
				{Status: BatchEntryOK, Fragment: goldenBlockAnswer("NBHD0", "100")},
			}},
			want: &Message{Kind: KindResult, Fragment: `<usRegion id="NE" status="id-complete"><state id="PA" status="id-complete">` +
				`<county id="Allegheny" status="id-complete"><city id="City0" status="complete">` +
				`<neighborhood id="NBHD0" zipcode="15226" status="complete"><block id="1" status="complete">` +
				`<parkingSpace id="1" status="complete"><available>yes</available><price>100</price></parkingSpace></block>` +
				`<block id="2" status="incomplete"/><block id="3" status="incomplete"/></neighborhood>` +
				`<neighborhood id="NBHD1" status="incomplete"/></city><city id="City1" status="incomplete"/></county></state></usRegion>`},
		},
		{
			name: "raw batch", kind: KindQuery, query: city + "/neighborhood/block[@id='1']/parkingSpace[available='yes']",
			wantReq: goldenReqBatch,
			reply: &Message{Kind: KindBatchResult, Entries: []BatchEntry{
				{Status: BatchEntryOK, Fragment: goldenBlockAnswer("NBHD0", "100")},
				{Status: BatchEntryOK, Fragment: goldenBlockAnswer("NBHD1", "25"), Unreachable: []string{lost}},
			}},
			want: &Message{Kind: KindResult, Unreachable: []string{lost}, Fragment: `<usRegion id="NE" status="id-complete"><state id="PA" status="id-complete">` +
				`<county id="Allegheny" status="id-complete"><city id="City0" status="complete">` +
				`<neighborhood id="NBHD0" zipcode="15226" status="complete"><block id="1" status="complete">` +
				`<parkingSpace id="1" status="complete"><available>yes</available><price>100</price></parkingSpace></block>` +
				`<block id="2" status="incomplete"/><block id="3" status="incomplete"/></neighborhood>` +
				`<neighborhood id="NBHD1" zipcode="15215" status="complete"><block id="1" status="complete">` +
				`<parkingSpace id="1" status="complete"><available>yes</available><price>25</price></parkingSpace>` +
				`<parkingSpace id="9" status="unreachable"/></block>` +
				`<block id="2" status="incomplete"/><block id="3" status="incomplete"/></neighborhood>` +
				`</city><city id="City1" status="incomplete"/></county></state></usRegion>`},
		},
		{
			name: "aggregate single", kind: KindAggregate,
			query:   "count(" + d.db.BlockPath(0, 0, 0).String() + "/parkingSpace/price)",
			wantReq: goldenReqAggSingle,
			reply: &Message{Kind: KindBatchResult, Entries: []BatchEntry{
				{Status: BatchEntryOK, Agg: &AggPayload{Fn: "count", AgeMaxSec: 3,
					Partial: qeg.AggPartial{Count: 3, Sum: 150, Min: 25, Max: 100, HasExtrema: true}}},
			}},
			want: &Message{Kind: KindAggregateResult, Agg: &AggPayload{Fn: "count", AgeMaxSec: 3,
				Partial: qeg.AggPartial{Count: 3, Sum: 150, Min: 25, Max: 100, HasExtrema: true}}},
		},
		{
			name: "aggregate batch", kind: KindAggregate,
			query:   "sum(" + city + "/neighborhood/block[@id='1']/parkingSpace/price)",
			wantReq: goldenReqAggBatch,
			reply: &Message{Kind: KindBatchResult, Entries: []BatchEntry{
				{Kind: KindAggregate, Status: BatchEntryOK, Agg: &AggPayload{Fn: "sum",
					Partial: qeg.AggPartial{Count: 3, Sum: 150, Min: 25, Max: 100, HasExtrema: true}}},
				{Kind: KindAggregate, Status: BatchEntryOK, Truncated: true, Unreachable: []string{lost}, Agg: &AggPayload{Fn: "sum", AgeMaxSec: 7,
					Partial: qeg.AggPartial{Count: 2, Sum: 75, Min: 0, Max: 50, HasExtrema: true}}},
			}},
			want: &Message{Kind: KindAggregateResult, Truncated: true, Unreachable: []string{lost}, Agg: &AggPayload{Fn: "sum", AgeMaxSec: 7,
				Partial: qeg.AggPartial{Count: 5, Sum: 225, Min: 0, Max: 100, HasExtrema: true}}},
		},
	}

	var gotReq []string
	var reply *Message
	d.net.Unregister(blocksName)
	if err := d.net.Register(blocksName, func(_ context.Context, payload []byte) ([]byte, error) {
		gotReq = append(gotReq, string(payload))
		return reply.Encode(), nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		gotReq, reply = nil, c.reply
		respB, err := d.net.Call(cityName, (&Message{Kind: c.kind, Query: c.query}).Encode())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(gotReq) != 1 || gotReq[0] != c.wantReq {
			t.Errorf("%s: requests on the wire:\n got %s\nwant %s", c.name, strings.Join(gotReq, "\n     "), c.wantReq)
		}
		if got, want := string(respB), string(c.want.Encode()); got != want {
			t.Errorf("%s: answer assembled from the canned reply:\n got %s\nwant %s", c.name, got, want)
		}
	}
}
