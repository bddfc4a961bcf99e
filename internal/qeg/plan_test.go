package qeg

import (
	"context"
	"strings"
	"testing"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

func TestCompilePlanClassifiesPredicates(t *testing.T) {
	plans, err := CompileQuery(pittsburghPath+
		"/neighborhood[@id='Oakland' and @ts >= now() - 30 and available-spaces > 5]/block",
		parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	nb := plans[0].Steps[4]
	if len(nb.IDPreds) != 1 || len(nb.ConsPreds) != 1 || len(nb.RestPreds) != 1 {
		t.Fatalf("split = id:%d cons:%d rest:%d", len(nb.IDPreds), len(nb.ConsPreds), len(nb.RestPreds))
	}
	if len(nb.IDConstraint) != 1 || !nb.IDConstraint.Admits("Oakland", nil) || nb.IDConstraint.Admits("Etna", nil) {
		t.Fatalf("id constraint = %v", nb.IDConstraint)
	}
}

func TestCompilePlanDOSFlag(t *testing.T) {
	plans, err := CompileQuery("//parkingSpace", parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	if !plans[0].Steps[0].DOS {
		t.Fatal("leading // should produce a DOS step")
	}
	if plans[0].Steps[1].DOS {
		t.Fatal("name step should not be DOS")
	}
}

func TestCompileQueryUnionBranches(t *testing.T) {
	plans, err := CompileQuery("/a[@id='1']/b | /a[@id='1']/c | /a[@id='1']/d", parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 3 {
		t.Fatalf("branches = %d, want 3", len(plans))
	}
}

func TestPinnedQueryPinsAndAppends(t *testing.T) {
	plans, _ := CompileQuery(figure2Query, parkingSchema())
	plan := plans[0]
	target := idpath(t, pittsburghPath+"/neighborhood[@id='Oakland']")
	// Subquery for the remaining steps after the neighborhood (step 4).
	q := plan.pinnedQuery(target, 5, true)
	if !strings.Contains(q, "neighborhood[@id='Oakland']") {
		t.Fatalf("target id not pinned: %s", q)
	}
	if strings.Contains(q, "Shadyside") {
		t.Fatalf("sibling ids must not survive pinning: %s", q)
	}
	if !strings.Contains(q, "block") || !strings.Contains(q, "parkingSpace") {
		t.Fatalf("remaining steps missing: %s", q)
	}
	// The pinned query must itself compile.
	if _, err := CompileQuery(q, parkingSchema()); err != nil {
		t.Fatalf("pinned query does not compile: %q: %v", q, err)
	}
	// pin=false omits the target step's data predicates.
	q2 := plan.pinnedQuery(target, 5, false)
	if strings.Contains(q2, "OR") || strings.Contains(q2, " or ") {
		t.Fatalf("unpinned query kept original predicates: %s", q2)
	}
}

func TestPinnedQueryPreservesDOS(t *testing.T) {
	plans, _ := CompileQuery(pittsburghPath+"//parkingSpace[available='yes']", parkingSchema())
	plan := plans[0]
	target := idpath(t, pittsburghPath)
	q := plan.pinnedQuery(target, 4, false) // steps 4.. = DOS + parkingSpace
	if !strings.Contains(q, "//parkingSpace") {
		t.Fatalf("descendant step lost: %s", q)
	}
	if _, err := CompileQuery(q, parkingSchema()); err != nil {
		t.Fatalf("pinned DOS query does not compile: %q: %v", q, err)
	}
}

func TestUpwardReach(t *testing.T) {
	cases := map[string]int{
		"price > 5":                          0,
		"../parkingSpace/price > 5":          1,
		"../../block/parkingSpace":           2,
		"not(price > ../parkingSpace/price)": 1,
		"count(../../block) = 2":             2,
	}
	for q, want := range cases {
		e, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		if got := upwardReach(e); got != want {
			t.Errorf("upwardReach(%q) = %d, want %d", q, got, want)
		}
	}
	// Ancestor axes are unbounded (clamped by the caller).
	e, _ := xpath.Parse("ancestor::block/parkingSpace")
	if got := upwardReach(e); got < 1000 {
		t.Errorf("ancestor reach = %d, want unbounded", got)
	}
}

func TestLCAPathHelpers(t *testing.T) {
	lca, err := LCAPath(figure2Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(lca) != 4 || lca[3].ID != "Pittsburgh" {
		t.Fatalf("LCA = %s", lca)
	}
	// Union common prefix.
	lca2, err := LCAPath(pittsburghPath + "/neighborhood[@id='A'] | " + pittsburghPath + "/neighborhood[@id='B']")
	if err != nil {
		t.Fatal(err)
	}
	if len(lca2) != 4 {
		t.Fatalf("union LCA = %s", lca2)
	}
	if _, err := LCAPath("//noprefix"); err == nil {
		t.Fatal("unroutable query should error")
	}
	if _, err := LCAPath("]bad["); err == nil {
		t.Fatal("unparsable query should error")
	}
}

func TestIgnoreCachedOption(t *testing.T) {
	// A store whose Oakland data is cached (complete): with IgnoreCached
	// the walker must re-fetch from the owner instead of serving it.
	s := fragment.NewStore("usRegion", "NE")
	frag := xmldb.MustParse(`<usRegion id="NE" status="id-complete">` +
		`<state id="PA" status="id-complete">` +
		`<county id="Allegheny" status="id-complete">` +
		`<city id="Pittsburgh" status="id-complete">` +
		`<neighborhood id="Oakland" status="complete">` +
		`<block id="1" status="complete">` +
		`<parkingSpace id="1" status="complete"><available>yes</available></parkingSpace>` +
		`</block></neighborhood></city></county></state></usRegion>`)
	if err := s.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	q := pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes']"
	plans, _ := CompileQuery(q, parkingSchema())

	res, err := Evaluate(s, plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 0 {
		t.Fatalf("cached data should answer locally: %v", res.Subqueries)
	}
	res2, err := Evaluate(s, plans[0], Options{IgnoreCached: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Subqueries) != 1 {
		t.Fatalf("bypass should emit exactly one subquery, got %v", res2.Subqueries)
	}
	// One coarse subquery at the first cached node, not one per descendant.
	if got := res2.Subqueries[0].Target[len(res2.Subqueries[0].Target)-1].Name; got != "neighborhood" {
		t.Fatalf("bypass subquery target = %s, want the neighborhood", res2.Subqueries[0].Target)
	}
}

func TestSubtreeQueryEscapesQuotes(t *testing.T) {
	p := xmldb.IDPath{{Name: "r", ID: "x"}, {Name: "c", ID: "it's"}}
	q := SubtreeQuery(p)
	if _, err := xpath.Parse(q); err != nil {
		t.Fatalf("quoted id broke the query %q: %v", q, err)
	}
}

// TestGatherMarksFailedFetchesUnreachable: a subquery that fails does not
// fail the gather; its target becomes an unreachable placeholder of a
// partial answer.
func TestGatherMarksFailedFetchesUnreachable(t *testing.T) {
	stores, _ := hierarchicalStores(t)
	plans, _ := CompileQuery(figure2Query, parkingSchema())
	var targets []xmldb.IDPath
	failing := &seqEnv{fetch: func(ctx context.Context, sq Subquery) Fetched {
		targets = append(targets, sq.Target)
		return Fetched{Err: errFetch}
	}}
	g, err := Gather(context.Background(), stores["city-site"], plans, failing, Options{})
	if err != nil {
		t.Fatalf("a failed fetch must not fail the gather: %v", err)
	}
	if len(targets) == 0 || len(g.Unreachable) != len(targets) {
		t.Fatalf("unreachable = %v, want the %d failed targets", g.Unreachable, len(targets))
	}
	for _, p := range targets {
		if !g.Unreachable[p.Key()] {
			t.Errorf("failed target %s not marked unreachable", p)
		}
	}
}

var errFetch = &fetchError{}

type fetchError struct{}

func (*fetchError) Error() string { return "injected fetch failure" }

func TestGatherMalformedSubAnswer(t *testing.T) {
	stores, _ := hierarchicalStores(t)
	plans, _ := CompileQuery(figure2Query, parkingSchema())
	malformed := &seqEnv{fetch: func(ctx context.Context, sq Subquery) Fetched {
		// A fragment violating C2: complete child under incomplete parent.
		return Fetched{Frag: xmldb.MustParse(`<usRegion id="NE" status="incomplete"><state id="PA" status="complete"/></usRegion>`)}
	}}
	if _, err := Gather(context.Background(), stores["city-site"], plans, malformed, Options{}); err == nil {
		t.Fatal("invalid subanswers must be rejected")
	}
}
