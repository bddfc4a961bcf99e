package qeg

import (
	"math/rand"
	"testing"

	"irisnet/internal/fragment"
)

// indexedCorpus is the fixed differential corpus: every indexable shape
// the planner produces — pure-id spines, spine+predicate, child chains
// without ids, deep descendant steps, predicate conjunctions (fast and
// opaque forms), id disjunctions, non-IDable targets, and misses.
var indexedCorpus = []string{
	figure2Query,
	pittsburghPath,
	pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='2']",
	pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='9']/parkingSpace[@id='1']",
	"/usRegion[@id='NE']/state/county/city",
	"/usRegion[@id='NE']//block",
	"/usRegion[@id='NE']//parkingSpace[available='yes']",
	"/usRegion[@id='NE']//parkingSpace[available='yes' and price>=25]",
	"/usRegion[@id='NE']//parkingSpace[not(available='no')]",
	"//parkingSpace[price>20][available='yes']",
	"//block[@id='2']",
	"//neighborhood[@zipcode='15213']//parkingSpace",
	"//available",
	pittsburghPath + "/neighborhood[@id='Etna']/block/parkingSpace/available",
	"/usRegion[@id='XX']/state[@id='PA']",
	"/usRegion[@id='NE']/state[@id='TX']/county[@id='Nowhere']",
	"//parkingSpace[price<0]",
}

// diffOne evaluates one plan both ways on one store and fails on any
// divergence in answer bytes, node accounting, or subquery count.
func diffOne(t *testing.T, store *fragment.Store, plan *Plan, label string) {
	t.Helper()
	fast, err := Evaluate(store, plan, Options{})
	if err != nil {
		t.Fatalf("%s: indexed evaluate: %v", label, err)
	}
	slow, err := evaluateWalker(store, plan, Options{})
	if err != nil {
		t.Fatalf("%s: walker evaluate: %v", label, err)
	}
	if fast.Fragment.String() != slow.Fragment.String() {
		t.Fatalf("%s: answers diverge\nindexed: %s\nwalker:  %s",
			label, fast.Fragment, slow.Fragment)
	}
	if fast.Nodes != slow.Nodes {
		t.Fatalf("%s: node counts diverge: indexed %d, walker %d", label, fast.Nodes, slow.Nodes)
	}
	if len(fast.Subqueries) != len(slow.Subqueries) {
		t.Fatalf("%s: subquery counts diverge: indexed %d, walker %d",
			label, len(fast.Subqueries), len(slow.Subqueries))
	}
}

// TestIndexedSnapshotMatchesWalker runs the corpus against a fully local
// store, every partial store of a hierarchical partitioning, a cache
// warmed by merging a gathered answer, and COW successors on both the
// derive (clean commit) and rebuild (structural commit) paths.
func TestIndexedSnapshotMatchesWalker(t *testing.T) {
	schema := parkingSchema()
	// Partition leaves stores unsealed (the site layer seals at load
	// time); seal here so the fast path is eligible.
	stores := map[string]*fragment.Store{"solo": singleSiteStore(t).Seal()}
	hier, a := hierarchicalStores(t)
	for name, s := range hier {
		stores[name] = s.Seal()
	}

	// Warm a cache: gather a cross-site answer at the root site and
	// merge it, leaving a mix of complete, id-complete and incomplete
	// regions for the index to classify.
	plans, err := CompileQuery(figure2Query, schema)
	if err != nil {
		t.Fatal(err)
	}
	frag := gatherAll(t, hier["root-site"], plans, resolver(t, hier, a, schema, "", nil))
	warmed := hier["root-site"].Clone()
	if err := warmed.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	stores["warmed"] = warmed.Seal()

	// COW successors of the solo store: a text-only update commit
	// derives the base index; a status flip forces a rebuild.
	spacePath := idpath(t, pittsburghPath+"/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='1']")
	w := stores["solo"].Begin()
	if err := w.ApplyUpdate(spacePath, map[string]string{"available": "no"}, nil, 5); err != nil {
		t.Fatal(err)
	}
	stores["cow-derived"] = w.Commit()
	w = stores["cow-derived"].Begin()
	if err := w.SetStatusAt(spacePath, fragment.StatusComplete); err != nil {
		t.Fatal(err)
	}
	stores["cow-rebuilt"] = w.Commit()

	fastPaths := 0
	for _, q := range indexedCorpus {
		plans, err := CompileQuery(q, schema)
		if err != nil {
			t.Fatalf("compile %q: %v", q, err)
		}
		for name, store := range stores {
			for _, plan := range plans {
				if n, ok, err := IndexedMatchCount(store, plan, Options{}); err == nil && ok {
					fastPaths++
					_ = n
				}
				diffOne(t, store, plan, name+" "+q)
			}
		}
	}
	if fastPaths < len(indexedCorpus) {
		t.Fatalf("fast path taken only %d times across the corpus — test is not exercising the index", fastPaths)
	}
}

// TestIndexedSnapshotRandomDifferential repeats the package's random
// document / random partition / random query generator, evaluating at
// every site both ways.
func TestIndexedSnapshotRandomDifferential(t *testing.T) {
	schema := randSchema()
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := randDoc(r)
		a := randAssign(r, d, 3)
		stores, _, err := fragment.Partition(d, a)
		if err != nil {
			t.Fatalf("seed %d: partition: %v", seed, err)
		}
		for _, s := range stores {
			s.Seal()
		}
		for trial := 0; trial < 4; trial++ {
			q := randQuery(r)
			plans, err := CompileQuery(q, schema)
			if err != nil {
				t.Fatalf("seed %d compile %q: %v", seed, q, err)
			}
			for name, store := range stores {
				for _, plan := range plans {
					diffOne(t, store, plan, name+" "+q)
				}
			}
		}
	}
}

// TestIndexedSpineAbsenceIsAuthoritative pins the subtle half of the
// fast-path contract: when a pure-id hop lands under a parent with full
// local information and the child is absent, the index answers the miss
// itself (spine-only answer, zero subqueries) instead of declining.
func TestIndexedSpineAbsenceIsAuthoritative(t *testing.T) {
	store := singleSiteStore(t).Seal()
	plans, err := CompileQuery(pittsburghPath+"/neighborhood[@id='Nowhere']/block[@id='1']", parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	n, ok, err := IndexedMatchCount(store, plans[0], Options{})
	if err != nil || !ok || n != 0 {
		t.Fatalf("miss below a complete parent: n=%d ok=%v err=%v, want 0/true/nil", n, ok, err)
	}
}

// TestIndexedDeclinesOffIndexCases pins when the fast path must NOT run:
// unsealed stores have no index, and IgnoreCached forces the walker
// semantics the index does not model.
func TestIndexedDeclinesOffIndexCases(t *testing.T) {
	sealed := singleSiteStore(t).Seal()
	unsealed := singleSiteStore(t)
	plans, err := CompileQuery(figure2Query, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := IndexedMatchCount(unsealed, plans[0], Options{}); ok {
		t.Fatal("fast path ran on an unsealed store")
	}
	if _, ok, _ := IndexedMatchCount(sealed, plans[0], Options{IgnoreCached: true}); ok {
		t.Fatal("fast path ignored IgnoreCached")
	}
}

// TestIndexedZeroAlloc is the hard performance contract from DESIGN.md
// §12: once the index and scratch pool are warm, the selection core
// allocates nothing per query.
func TestIndexedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get")
	}
	store := singleSiteStore(t).Seal()
	schema := parkingSchema()
	for _, q := range []string{
		figure2Query,
		"/usRegion[@id='NE']//parkingSpace[available='yes']",
		"//parkingSpace[price>20][available='yes']",
	} {
		plans, err := CompileQuery(q, schema)
		if err != nil {
			t.Fatal(err)
		}
		plan := plans[0]
		if _, ok, err := IndexedMatchCount(store, plan, Options{}); err != nil || !ok {
			t.Fatalf("%q: fast path declined (ok=%v err=%v)", q, ok, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok, _ := IndexedMatchCount(store, plan, Options{}); !ok {
				t.Fatal("fast path declined mid-measurement")
			}
		})
		if allocs != 0 {
			t.Fatalf("%q: %v allocs/op on the indexed selection core, want 0", q, allocs)
		}
	}
}
