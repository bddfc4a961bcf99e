package qeg

import (
	"context"
	"sort"
	"strings"
	"testing"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

const paperDoc = `
<usRegion id="NE">
  <state id="PA">
    <county id="Allegheny">
      <city id="Pittsburgh">
        <neighborhood id="Oakland" zipcode="15213">
          <block id="1">
            <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
            <parkingSpace id="2"><available>no</available><price>0</price></parkingSpace>
            <parkingSpace id="3"><available>yes</available><price>0</price></parkingSpace>
          </block>
          <block id="2">
            <parkingSpace id="1"><available>yes</available><price>50</price></parkingSpace>
          </block>
          <available-spaces>8</available-spaces>
        </neighborhood>
        <neighborhood id="Shadyside" zipcode="15232">
          <block id="1">
            <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
          </block>
        </neighborhood>
        <neighborhood id="Etna" zipcode="15223">
          <block id="1">
            <parkingSpace id="1"><available>no</available><price>10</price></parkingSpace>
          </block>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>`

func parkingSchema() *xpath.Schema {
	return &xpath.Schema{
		Children: map[string][]string{
			"usRegion":     {"state"},
			"state":        {"county"},
			"county":       {"city"},
			"city":         {"neighborhood"},
			"neighborhood": {"block", "available-spaces"},
			"block":        {"parkingSpace"},
			"parkingSpace": {"available", "price"},
		},
		IDable: map[string]bool{
			"usRegion": true, "state": true, "county": true, "city": true,
			"neighborhood": true, "block": true, "parkingSpace": true,
		},
	}
}

func doc(t testing.TB) *xmldb.Node {
	t.Helper()
	n, err := xmldb.ParseString(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func idpath(t testing.TB, s string) xmldb.IDPath {
	t.Helper()
	p, err := xmldb.ParseIDPath(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const figure2Query = `/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
	`/city[@id='Pittsburgh']/neighborhood[@id='Oakland' OR @id='Shadyside']` +
	`/block[@id='1']/parkingSpace[available='yes']`

const pittsburghPath = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']"

// singleSiteStore builds a store owning the entire document.
func singleSiteStore(t testing.TB) *fragment.Store {
	t.Helper()
	stores, _, err := fragment.Partition(doc(t), fragment.NewAssignment("solo"))
	if err != nil {
		t.Fatal(err)
	}
	return stores["solo"]
}

// hierarchicalStores partitions the paper document like Figure 6(iv): one
// site per neighborhood, one for the city, one for the rest.
func hierarchicalStores(t testing.TB) (map[string]*fragment.Store, *fragment.Assignment) {
	t.Helper()
	a := fragment.NewAssignment("root-site")
	a.Assign(idpath(t, pittsburghPath), "city-site")
	for _, nb := range []string{"Oakland", "Shadyside", "Etna"} {
		a.Assign(idpath(t, pittsburghPath+"/neighborhood[@id='"+nb+"']"), "site-"+nb)
	}
	stores, _, err := fragment.Partition(doc(t), a)
	if err != nil {
		t.Fatal(err)
	}
	return stores, a
}

// seqEnv is the sequential Env the tests run the production gather loop
// through: plain Evaluate, CPU work inline, and a Fetch that answers each
// subquery of a round in turn with fetch.
type seqEnv struct {
	fetch  func(ctx context.Context, sq Subquery) Fetched
	rounds int // Fetch calls so far
}

func (e *seqEnv) Evaluate(store *fragment.Store, plan *Plan, opts Options) (*Result, error) {
	return Evaluate(store, plan, opts)
}

func (e *seqEnv) Fetch(ctx context.Context, sqs []Subquery) []Fetched {
	e.rounds++
	out := make([]Fetched, len(sqs))
	for i, sq := range sqs {
		out[i] = e.fetch(ctx, sq)
	}
	return out
}

func (e *seqEnv) Do(f func()) { f() }

// resolver returns a seqEnv that answers each subquery by a recursive Gather
// at its target's owner — the loop the site layer runs over the network —
// except that every subquery whose target the site down owns fails, as if
// that site were dead ("" for none). hops, when non-nil, counts subqueries.
func resolver(t testing.TB, stores map[string]*fragment.Store, a *fragment.Assignment, schema *xpath.Schema, down string, hops *int) *seqEnv {
	env := &seqEnv{}
	env.fetch = func(ctx context.Context, sq Subquery) Fetched {
		if hops != nil {
			*hops++
		}
		owner := a.OwnerOf(sq.Target)
		if owner == down {
			return Fetched{Err: errFetch}
		}
		plans, err := CompileQuery(sq.Query, schema)
		if err == nil {
			var g *Gathered
			if g, err = Gather(ctx, stores[owner], plans, env, Options{}); err == nil {
				f := Fetched{Frag: g.Answer.Root}
				for k := range g.Unreachable {
					f.Unreachable = append(f.Unreachable, k)
				}
				return f
			}
		}
		t.Errorf("subquery %q at %s: %v", sq.Query, owner, err)
		return Fetched{Err: err}
	}
	return env
}

// gatherAll runs the gather loop at store through env and returns the
// answer, failing the test on an error or a partial answer.
func gatherAll(t testing.TB, store *fragment.Store, plans []*Plan, env Env) *xmldb.Node {
	t.Helper()
	g, err := Gather(context.Background(), store, plans, env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Unreachable) > 0 {
		t.Fatalf("partial answer, unreachable: %v", g.Unreachable)
	}
	return g.Answer.Root
}

// centralized evaluates the query on the full document.
func centralized(t testing.TB, d *xmldb.Node, query string) []string {
	t.Helper()
	expr, err := xpath.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	ns, err := xpatheval.Select(xpath.StripConsistency(expr), &xpatheval.Context{Root: d}, d)
	if err != nil {
		t.Fatalf("central eval %q: %v", query, err)
	}
	return canonSet(ns)
}

func canonSet(ns []*xmldb.Node) []string {
	out := make([]string, 0, len(ns))
	for _, n := range ns {
		out = append(out, fragment.StripInternal(n).Canonical())
	}
	sort.Strings(out)
	return out
}

// distributed runs the full QEG pipeline entering at the given site.
func distributed(t testing.TB, stores map[string]*fragment.Store, a *fragment.Assignment, entry, query string) []string {
	t.Helper()
	schema := parkingSchema()
	plans, err := CompileQuery(query, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	frag := gatherAll(t, stores[entry], plans, resolver(t, stores, a, schema, "", nil))
	ans, err := ExtractAnswer(frag, query, nil)
	if err != nil {
		t.Fatalf("extract %q: %v", query, err)
	}
	return canonSet(ans)
}

func sameSets(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\n got: %v\nwant: %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d differs\n got: %s\nwant: %s", what, i, got[i], want[i])
		}
	}
}

func TestEvaluateSingleSiteNoSubqueries(t *testing.T) {
	store := singleSiteStore(t)
	plans, err := CompileQuery(figure2Query, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(store, plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 0 {
		t.Fatalf("single-site evaluation should not need subqueries: %v", res.Subqueries)
	}
	ans, err := ExtractAnswer(res.Fragment, figure2Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, canonSet(ans), centralized(t, doc(t), figure2Query), "figure 2 on single site")
}

func TestEvaluateEmitsPinnedSubqueries(t *testing.T) {
	// The Section 2 scenario: the entry site has the Pittsburgh hierarchy
	// but the neighborhoods live elsewhere.
	stores, _ := hierarchicalStores(t)
	citySite := stores["city-site"]
	plans, err := CompileQuery(figure2Query, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(citySite, plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 2 {
		t.Fatalf("want 2 subqueries (Oakland, Shadyside), got %v", res.Subqueries)
	}
	for _, sq := range res.Subqueries {
		last := sq.Target[len(sq.Target)-1]
		if last.Name != "neighborhood" {
			t.Errorf("subquery target should be a neighborhood: %s", sq.Target)
		}
		if !strings.Contains(sq.Query, "parkingSpace[(available = \"yes\")]") &&
			!strings.Contains(sq.Query, "parkingSpace[available='yes']") &&
			!strings.Contains(sq.Query, `parkingSpace[(available = "yes")]`) {
			t.Errorf("subquery must carry the remaining steps: %s", sq.Query)
		}
		// The target id must be pinned so the remote site prunes siblings.
		if !strings.Contains(sq.Query, "[@id='"+last.ID+"']") {
			t.Errorf("subquery must pin target id %q: %s", last.ID, sq.Query)
		}
		// Etna fails Pid and must NOT be asked (Section 3.5 case 1).
		if last.ID == "Etna" {
			t.Errorf("Etna was pruned by Pid and must not be subqueried")
		}
	}
}

func TestGatherFigure2Distributed(t *testing.T) {
	stores, a := hierarchicalStores(t)
	got := distributed(t, stores, a, "city-site", figure2Query)
	sameSets(t, got, centralized(t, doc(t), figure2Query), "figure 2 distributed")
	if len(got) != 3 {
		t.Fatalf("figure 2 answer size = %d, want 3 available spaces", len(got))
	}
}

func TestGatherFromEveryEntrySite(t *testing.T) {
	stores, a := hierarchicalStores(t)
	want := centralized(t, doc(t), figure2Query)
	for entry := range stores {
		got := distributed(t, stores, a, entry, figure2Query)
		sameSets(t, got, want, "entry at "+entry)
	}
}

func TestGatherVariousQueries(t *testing.T) {
	stores, a := hierarchicalStores(t)
	d := doc(t)
	queries := []string{
		// Type 1: exact path to one block.
		pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']",
		// All spaces of one neighborhood.
		pittsburghPath + "/neighborhood[@id='Etna']/block/parkingSpace",
		// Subtree of the whole city.
		pittsburghPath,
		// Predicates on non-IDable children.
		pittsburghPath + "/neighborhood[@id='Oakland']/block/parkingSpace[price='0']",
		// Wildcard step.
		pittsburghPath + "/neighborhood[@id='Shadyside']/*",
		// Descendant step from the city.
		pittsburghPath + "//parkingSpace[available='yes']",
		// Attribute tail.
		pittsburghPath + "/neighborhood[@id='Oakland']/@zipcode",
		// Union of two branches.
		pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='2'] | " +
			pittsburghPath + "/neighborhood[@id='Etna']/block[@id='1']",
		// Unconstrained neighborhood scan (subsumption shape).
		pittsburghPath + "/neighborhood/block[@id='1']/parkingSpace[available='yes']",
		// Leading descendant query.
		"//parkingSpace[price='50']",
		// Empty result: id that does not exist.
		pittsburghPath + "/neighborhood[@id='Nowhere']/block",
		// Empty result: predicate nothing satisfies.
		pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[price='999']",
	}
	for _, q := range queries {
		for entry := range stores {
			got := distributed(t, stores, a, entry, q)
			sameSets(t, got, centralized(t, d, q), q+" @ "+entry)
		}
	}
}

func TestGatherNestedMinPriceQuery(t *testing.T) {
	// Section 3.5's pathological configuration: every parkingSpace owned by
	// a different site. The min-price predicate needs sibling data.
	d := doc(t)
	a := fragment.NewAssignment("root-site")
	i := 0
	d.Walk(func(n *xmldb.Node) bool {
		if n.Name == "parkingSpace" {
			p, _ := xmldb.IDPathOf(n)
			a.Assign(p, "ps-site-"+string(rune('0'+i)))
			i++
		}
		return true
	})
	stores, _, err := fragment.Partition(d, a)
	if err != nil {
		t.Fatal(err)
	}
	q := pittsburghPath + `/neighborhood[@id='Oakland']/block[@id='1']` +
		`/parkingSpace[not(price > ../parkingSpace/price)]`
	for entry := range stores {
		got := distributed(t, stores, a, entry, q)
		sameSets(t, got, centralized(t, d, q), "min price @ "+entry)
	}
}

func TestGatherNestedExistencePredicate(t *testing.T) {
	stores, a := hierarchicalStores(t)
	d := doc(t)
	// Section 4's "frivolous" query shape: cities having an Oakland.
	q := `/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
		`/city[./neighborhood[@id='Oakland']]/neighborhood/block[@id='1']/parkingSpace[available='yes']`
	got := distributed(t, stores, a, "root-site", q)
	sameSets(t, got, centralized(t, d, q), "nested existence")
}

func TestNestedGatherPointAdjustment(t *testing.T) {
	schema := parkingSchema()
	plans, err := CompileQuery(pittsburghPath+`/neighborhood[@id='Oakland']/block[@id='1']`+
		`/parkingSpace[not(price > ../parkingSpace/price)]`, schema)
	if err != nil {
		t.Fatal(err)
	}
	// The predicate is on parkingSpace (step 6) but the upward reference
	// moves the gather point to block (step 5).
	if plans[0].NestedIdx != 5 {
		t.Fatalf("NestedIdx = %d, want 5 (block)", plans[0].NestedIdx)
	}
	// Depth-0 queries have no gather point.
	plans2, _ := CompileQuery(figure2Query, schema)
	if plans2[0].NestedIdx != -1 {
		t.Fatalf("depth-0 NestedIdx = %d, want -1", plans2[0].NestedIdx)
	}
}

func TestGatherHopCount(t *testing.T) {
	// Self-starting at the LCA site must need fewer hops than entering at
	// the root site.
	stores, a := hierarchicalStores(t)
	schema := parkingSchema()
	count := func(entry string) int {
		hops := 0
		plans, _ := CompileQuery(figure2Query, schema)
		gatherAll(t, stores[entry], plans, resolver(t, stores, a, schema, "", &hops))
		return hops
	}
	atCity := count("city-site")
	atRoot := count("root-site")
	if atCity >= atRoot {
		t.Fatalf("LCA entry should save hops: city=%d root=%d", atCity, atRoot)
	}
}

func TestPartialMatchCaching(t *testing.T) {
	// Cache Oakland's data at the city site by running an Oakland query and
	// merging the answer; a subsequent two-neighborhood query must only ask
	// for Shadyside.
	stores, a := hierarchicalStores(t)
	schema := parkingSchema()
	citySite := stores["city-site"]

	warm := pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes']"
	plans, _ := CompileQuery(warm, schema)
	frag := gatherAll(t, citySite, plans, resolver(t, stores, a, schema, "", nil))
	if err := citySite.MergeFragment(frag); err != nil {
		t.Fatalf("caching merge: %v", err)
	}

	plans2, _ := CompileQuery(figure2Query, schema)
	res, err := Evaluate(citySite, plans2[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range res.Subqueries {
		if strings.Contains(sq.Target.Key(), "Oakland") {
			// Oakland block 1 is cached; only deeper-than-cached parts or
			// Shadyside may be asked. Block 1's data must not be re-fetched.
			if strings.Contains(sq.Target.Key(), `block[@id="1"]`) {
				t.Errorf("cached Oakland block 1 re-fetched: %v", sq)
			}
		}
	}
	// And the final distributed answer is still correct.
	got := distributed(t, stores, a, "city-site", figure2Query)
	sameSets(t, got, centralized(t, doc(t), figure2Query), "after partial caching")
}

func TestSubsumption(t *testing.T) {
	// The New York scenario of Section 3.3: once all sibling neighborhoods
	// are cached, an unconstrained neighborhood query is answerable locally
	// because the city's local ID information lists every neighborhood.
	stores, a := hierarchicalStores(t)
	schema := parkingSchema()
	citySite := stores["city-site"]
	for _, nb := range []string{"Oakland", "Shadyside", "Etna"} {
		q := pittsburghPath + "/neighborhood[@id='" + nb + "']"
		plans, _ := CompileQuery(q, schema)
		frag := gatherAll(t, citySite, plans, resolver(t, stores, a, schema, "", nil))
		if err := citySite.MergeFragment(frag); err != nil {
			t.Fatal(err)
		}
	}
	q := pittsburghPath + "/neighborhood/block/parkingSpace[available='yes']"
	plans, _ := CompileQuery(q, schema)
	res, err := Evaluate(citySite, plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 0 {
		t.Fatalf("all neighborhoods cached; query should be answered locally, got subqueries %v", res.Subqueries)
	}
	ans, err := ExtractAnswer(res.Fragment, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, canonSet(ans), centralized(t, doc(t), q), "subsumption")
}

func TestConsistencyPredicates(t *testing.T) {
	stores, a := hierarchicalStores(t)
	schema := parkingSchema()
	citySite := stores["city-site"]

	// Stamp Oakland's data as created at t=100 and cache it at the city.
	oakStore := stores["site-Oakland"]
	oakPath := idpath(t, pittsburghPath+"/neighborhood[@id='Oakland']")
	oakNode := oakStore.NodeAt(oakPath)
	fragment.SetTimestamp(oakNode, 100)
	warm := pittsburghPath + "/neighborhood[@id='Oakland']"
	plans, _ := CompileQuery(warm, schema)
	frag := gatherAll(t, citySite, plans, resolver(t, stores, a, schema, "", nil))
	if err := citySite.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}

	// A query tolerating 60-second staleness at now=120 hits the cache.
	qTol := pittsburghPath + "/neighborhood[@id='Oakland' and @ts >= now() - 60]"
	plansTol, err := CompileQuery(qTol, schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(citySite, plansTol[0], Options{Now: func() float64 { return 120 }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 0 {
		t.Fatalf("fresh-enough cache should be used, got subqueries %v", res.Subqueries)
	}

	// At now=300 the cache is too stale: the owner must be re-asked.
	res2, err := Evaluate(citySite, plansTol[0], Options{Now: func() float64 { return 300 }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Subqueries) != 1 {
		t.Fatalf("stale cache should trigger a subquery, got %v", res2.Subqueries)
	}
	// The owner itself ignores consistency predicates (freshest available).
	res3, err := Evaluate(oakStore, plansTol[0], Options{Now: func() float64 { return 300 }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Subqueries) != 0 {
		t.Fatalf("owner must answer ignoring consistency predicates: %v", res3.Subqueries)
	}
	ans, err := ExtractAnswer(res3.Fragment, qTol, func() float64 { return 300 })
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("owner answer should contain Oakland despite staleness, got %d", len(ans))
	}
}

func TestOpaquePredicateForcesSubquery(t *testing.T) {
	stores, _ := hierarchicalStores(t)
	citySite := stores["city-site"]
	// A disjunction mixing id and data predicates cannot be split: the city
	// site must conservatively ask the neighborhoods it cannot evaluate.
	q := pittsburghPath + "/neighborhood[@id='Oakland' or available-spaces > 5]/block[@id='1']"
	plans, err := CompileQuery(q, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(citySite, plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 3 {
		t.Fatalf("opaque predicate should subquery all 3 neighborhoods, got %v", res.Subqueries)
	}
}

func TestSubtreeQueryAndPinned(t *testing.T) {
	p := idpath(t, pittsburghPath+"/neighborhood[@id='Oakland']")
	q := SubtreeQuery(p)
	if q != "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']/neighborhood[@id='Oakland']" {
		t.Fatalf("SubtreeQuery = %s", q)
	}
	// Subtree queries must themselves parse and compile.
	if _, err := CompileQuery(q, parkingSchema()); err != nil {
		t.Fatalf("subtree query does not compile: %v", err)
	}
}

func TestCompileRejectsBadQueries(t *testing.T) {
	schema := parkingSchema()
	bad := []string{
		"block[@id='1']", // relative
		"1 + 2",          // not a path
		"/a/b | 3",       // union with non-path
		"/a/parent::b",   // upward main-path axis
	}
	for _, q := range bad {
		if _, err := CompileQuery(q, schema); err == nil {
			t.Errorf("CompileQuery(%q): expected error", q)
		}
	}
}

func TestGenerateAndNaiveCompile(t *testing.T) {
	schema := parkingSchema()
	queries := []string{
		figure2Query,
		pittsburghPath + "/neighborhood[@id='Oakland']/block",
		"//parkingSpace[available='yes']",
		pittsburghPath + "/neighborhood[@id='Oakland']/@zipcode",
	}
	for _, q := range queries {
		fast, err := CompilePlan(q, schema)
		if err != nil {
			// union/odd queries skipped for CompilePlan
			continue
		}
		xslt := GenerateXSLT(fast.Path)
		if !strings.Contains(xslt, "asksubquery") || !strings.Contains(xslt, "copy-local-info") {
			t.Fatalf("generated XSLT missing QEG machinery:\n%s", xslt)
		}
		naive, err := NaiveCompile(q, schema)
		if err != nil {
			t.Fatalf("NaiveCompile(%q): %v", q, err)
		}
		if naive.Path.String() != fast.Path.String() {
			t.Fatalf("naive and fast plans differ:\n naive: %s\n fast:  %s", naive.Path, fast.Path)
		}
		if naive.NestedIdx != fast.NestedIdx {
			t.Fatalf("nested idx differ: %d vs %d", naive.NestedIdx, fast.NestedIdx)
		}
	}
}

func TestCompilerCaching(t *testing.T) {
	c := NewCompiler(parkingSchema(), false)
	p1, err := c.Compile(figure2Query)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(figure2Query)
	if err != nil {
		t.Fatal(err)
	}
	if p1[0].template != p2[0].template || c.Misses.Value() != 1 {
		t.Fatal("fast compiler should cache plans")
	}
	n := NewCompiler(parkingSchema(), true)
	q1, err := n.Compile(figure2Query)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := n.Compile(figure2Query)
	if err != nil {
		t.Fatal(err)
	}
	if q1[0].template == q2[0].template {
		t.Fatal("naive compiler must not cache (Figure 11 methodology)")
	}
}

func TestGatherResultIsValidFragment(t *testing.T) {
	// Answers must satisfy C1/C2 so any site can cache them.
	stores, a := hierarchicalStores(t)
	schema := parkingSchema()
	plans, _ := CompileQuery(figure2Query, schema)
	frag := gatherAll(t, stores["root-site"], plans, resolver(t, stores, a, schema, "", nil))
	if err := fragment.ValidateFragment(frag); err != nil {
		t.Fatalf("answer fragment violates cache conditions: %v", err)
	}
	// And merging it into a fresh store keeps the store invariant-clean.
	s := fragment.NewStore("usRegion", "NE")
	if err := s.MergeFragment(frag); err != nil {
		t.Fatalf("fresh store merge: %v", err)
	}
	if errs := fragment.CheckInvariants(s, doc(t), nil, false); len(errs) > 0 {
		t.Fatalf("invariants after caching answer: %v", errs)
	}
}
