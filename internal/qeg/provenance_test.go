package qeg

import (
	"math"
	"testing"

	"irisnet/internal/fragment"
)

// warmOakland stamps Oakland's subtree as created at t=100 and caches it
// at the city site, returning the city store.
func warmOakland(t *testing.T) (citySite *fragment.Store, stores map[string]*fragment.Store) {
	t.Helper()
	stores, a := hierarchicalStores(t)
	schema := parkingSchema()
	citySite = stores["city-site"]
	oakStore := stores["site-Oakland"]
	oakPath := idpath(t, pittsburghPath+"/neighborhood[@id='Oakland']")
	fragment.SetTimestamp(oakStore.NodeAt(oakPath), 100)
	warm := pittsburghPath + "/neighborhood[@id='Oakland']"
	plans, err := CompileQuery(warm, schema)
	if err != nil {
		t.Fatal(err)
	}
	frag := gatherAll(t, citySite, plans, resolver(t, stores, a, schema, "", nil))
	if err := citySite.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	return citySite, stores
}

// TestProvenanceCachedWithMargin: a cache hit under a 60s tolerance at
// now=120 (data stamped t=100) must ledger cached units aged 20s and a
// 40s margin on the consistency predicate.
func TestProvenanceCachedWithMargin(t *testing.T) {
	citySite, _ := warmOakland(t)
	qTol := pittsburghPath + "/neighborhood[@id='Oakland' and @ts >= now() - 60]"
	plans, err := CompileQuery(qTol, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	prov := NewProvenance(120)
	res, err := Evaluate(citySite, plans[0], Options{Now: func() float64 { return 120 }, Prov: prov})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 0 {
		t.Fatalf("fresh-enough cache should be used, got subqueries %v", res.Subqueries)
	}
	if prov.CachedUnits == 0 || prov.CachedBytes <= 0 {
		t.Fatalf("cache hit not ledgered: units=%d bytes=%d", prov.CachedUnits, prov.CachedBytes)
	}
	if prov.AgedUnits == 0 || math.Abs(prov.AgeMax-20) > 1e-9 {
		t.Fatalf("cached age wrong: aged=%d max=%v, want max=20", prov.AgedUnits, prov.AgeMax)
	}
	if prov.MarginChecks == 0 {
		t.Fatal("consistency predicate check not counted")
	}
	m, ok := prov.MinMargin()
	if !ok || math.Abs(m-40) > 1e-9 {
		t.Fatalf("margin = %v (measured=%v), want 40", m, ok)
	}
}

// TestProvenanceOwnedSkipsMargins: the owner answers from owned data and
// ignores consistency predicates, so the ledger must show owned units
// only and no margin checks.
func TestProvenanceOwnedSkipsMargins(t *testing.T) {
	_, stores := warmOakland(t)
	oakStore := stores["site-Oakland"]
	qTol := pittsburghPath + "/neighborhood[@id='Oakland' and @ts >= now() - 60]"
	plans, err := CompileQuery(qTol, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	prov := NewProvenance(300)
	res, err := Evaluate(oakStore, plans[0], Options{Now: func() float64 { return 300 }, Prov: prov})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 0 {
		t.Fatalf("owner should answer locally, got %v", res.Subqueries)
	}
	if prov.OwnedUnits == 0 || prov.OwnedBytes <= 0 {
		t.Fatalf("owned data not ledgered: units=%d bytes=%d", prov.OwnedUnits, prov.OwnedBytes)
	}
	if prov.CachedUnits != 0 {
		t.Fatalf("owner has nothing cached, got %d cached units", prov.CachedUnits)
	}
	if prov.MarginChecks != 0 {
		t.Fatalf("owned data skips consistency predicates, got %d checks", prov.MarginChecks)
	}
}

// TestProvenanceIndexedMatchesWalker: the indexed fast path and the
// walker must ledger identical provenance for every indexable query.
func TestProvenanceIndexedMatchesWalker(t *testing.T) {
	store := singleSiteStore(t)
	schema := parkingSchema()
	for _, q := range indexedCorpus {
		plans, err := CompileQuery(q, schema)
		if err != nil {
			t.Fatalf("compile %q: %v", q, err)
		}
		for _, plan := range plans {
			fast := NewProvenance(50)
			if _, err := Evaluate(store, plan, Options{Prov: fast}); err != nil {
				t.Fatalf("%s: indexed: %v", q, err)
			}
			slow := NewProvenance(50)
			if _, err := evaluateWalker(store, plan, Options{Prov: slow}); err != nil {
				t.Fatalf("%s: walker: %v", q, err)
			}
			if fast.OwnedUnits != slow.OwnedUnits || fast.OwnedBytes != slow.OwnedBytes ||
				fast.CachedUnits != slow.CachedUnits || fast.CachedBytes != slow.CachedBytes {
				t.Errorf("%s: provenance diverges: indexed owned=%d/%dB cached=%d/%dB, walker owned=%d/%dB cached=%d/%dB",
					q, fast.OwnedUnits, fast.OwnedBytes, fast.CachedUnits, fast.CachedBytes,
					slow.OwnedUnits, slow.OwnedBytes, slow.CachedUnits, slow.CachedBytes)
			}
		}
	}
}

// TestProvenanceMerge: Merge adds counts/bytes, keeps the max age, blends
// mean age by unit count and takes per-predicate margin minima.
func TestProvenanceMerge(t *testing.T) {
	a := NewProvenance(100)
	a.OwnedUnits, a.OwnedBytes = 2, 200
	a.AgedUnits, a.AgeSum, a.AgeMax = 2, 30, 20
	a.noteMargin("p", 40, true)
	b := NewProvenance(100)
	b.CachedUnits, b.CachedBytes = 1, 50
	b.AgedUnits, b.AgeSum, b.AgeMax = 1, 60, 60
	b.noteMargin("p", 10, true)
	b.noteMargin("q", 5, true)
	a.Merge(b)
	if a.OwnedUnits != 2 || a.CachedUnits != 1 || a.OwnedBytes != 200 || a.CachedBytes != 50 {
		t.Fatalf("counts wrong after merge: %+v", a)
	}
	if a.AgeMax != 60 || math.Abs(a.MeanAge()-30) > 1e-9 {
		t.Fatalf("ages wrong after merge: max=%v mean=%v", a.AgeMax, a.MeanAge())
	}
	if a.MarginChecks != 3 {
		t.Fatalf("margin checks = %d, want 3", a.MarginChecks)
	}
	if m := a.Margins["p"]; m == nil || m.Min != 10 || m.Checks != 2 {
		t.Fatalf("predicate p after merge: %+v", m)
	}
	if m, ok := a.MinMargin(); !ok || m != 5 {
		t.Fatalf("min margin = %v (%v), want 5", m, ok)
	}
}
