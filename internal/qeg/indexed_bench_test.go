package qeg

import (
	"testing"

	"irisnet/internal/fragment"
	"irisnet/internal/workload"
)

// benchStore builds a sealed single-site store over the paper-small
// database and compiles the query once, the way the plan cache serves it.
func benchStore(b *testing.B, query string) (*fragment.Store, *Plan) {
	b.Helper()
	db := workload.Build(workload.PaperSmall())
	stores, _, err := fragment.Partition(db.Doc, fragment.NewAssignment("solo"))
	if err != nil {
		b.Fatal(err)
	}
	store := stores["solo"].Seal()
	plans, err := CompileQuery(query, db.Schema)
	if err != nil {
		b.Fatal(err)
	}
	return store, plans[0]
}

var benchQueries = []struct{ name, query string }{
	{"child-path", "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']" +
		"/city[@id='City0']/neighborhood[@id='NBHD0']/block[@id='1']/parkingSpace[available='yes']"},
	{"deep-descendant", "/usRegion[@id='NE']//parkingSpace[available='yes']"},
	{"predicate-heavy", "/usRegion[@id='NE']//parkingSpace[available='yes' and price>=25 and meter='2hr']"},
}

// BenchmarkIndexedEvaluate measures the full indexed fast path — selection
// plus generalized-answer construction — against the walker on the same
// plans (BenchmarkWalkerEvaluate below). The CI perf gate compares the two.
func BenchmarkIndexedEvaluate(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			store, plan := benchStore(b, q.query)
			if !plan.Indexable {
				b.Fatal("plan not indexable")
			}
			if _, ok, err := IndexedMatchCount(store, plan, Options{}); err != nil || !ok {
				b.Fatalf("fast path declined: ok=%v err=%v", ok, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(store, plan, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWalkerEvaluate is the tree-walk baseline for the same plans.
func BenchmarkWalkerEvaluate(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			store, plan := benchStore(b, q.query)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evaluateWalker(store, plan, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexedSelect measures the selection core alone — the
// allocation-free hot path metrics sample per query.
func BenchmarkIndexedSelect(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			store, plan := benchStore(b, q.query)
			if _, ok, err := IndexedMatchCount(store, plan, Options{}); err != nil || !ok {
				b.Fatalf("fast path declined: ok=%v err=%v", ok, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, _ := IndexedMatchCount(store, plan, Options{}); !ok {
					b.Fatal("fast path declined")
				}
			}
		})
	}
}
