package qeg

import (
	"testing"

	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// BenchmarkExtractAnswer measures the front end's last step: the user query
// re-run over an assembled answer (two blocks of two neighborhoods, parsed
// from its wire text) to read out the selected, cleaned subtrees.
func BenchmarkExtractAnswer(b *testing.B) {
	const query = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='City0']" +
		"/neighborhood[@id='NBHD0' or @id='NBHD1']/block[@id='1']/parkingSpace[available='yes']"
	store, plan := benchStore(b, query)
	res, err := Evaluate(store, plan, Options{})
	if err != nil {
		b.Fatal(err)
	}
	answer, err := xmldb.ParseString(res.Fragment.String())
	if err != nil {
		b.Fatal(err)
	}
	expr, err := xpath.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	nodes, _, err := ExtractParsed(answer, expr, nil, ExtractOptions{})
	if err != nil || len(nodes) == 0 {
		b.Fatalf("extracted %d nodes, err %v", len(nodes), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExtractParsed(answer, expr, nil, ExtractOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
