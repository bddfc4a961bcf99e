package qeg

import (
	"context"
	"fmt"
	"math"
	"testing"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

func TestAggPartialCombineIdentityAndAssociativity(t *testing.T) {
	a := AggPartial{Count: 2, Sum: 30, Min: 10, Max: 20, HasExtrema: true}
	b := AggPartial{Count: 1, Sum: 5, Min: 5, Max: 5, HasExtrema: true}
	c := AggPartial{Count: 3, SumNaN: true, Min: -1, Max: 100, HasExtrema: true}

	var zero AggPartial
	if a.Combine(zero) != a || zero.Combine(a) != a {
		t.Fatal("zero value is not the identity")
	}
	if a.Combine(b) != b.Combine(a) {
		t.Fatal("Combine is not commutative")
	}
	if a.Combine(b).Combine(c) != a.Combine(b.Combine(c)) {
		t.Fatal("Combine is not associative")
	}
	ab := a.Combine(b)
	if ab.Count != 3 || ab.Sum != 35 || ab.Min != 5 || ab.Max != 20 || !ab.HasExtrema || ab.SumNaN {
		t.Fatalf("Combine = %+v", ab)
	}
	// Extrema from a one-sided combine survive untouched.
	onesided := zero.Combine(b)
	if !onesided.HasExtrema || onesided.Min != 5 || onesided.Max != 5 {
		t.Fatalf("one-sided Combine lost extrema: %+v", onesided)
	}
}

func TestAggPartialFinal(t *testing.T) {
	p := AggPartial{Count: 4, Sum: 100, Min: 0, Max: 75, HasExtrema: true}
	cases := []struct {
		fn   xpath.AggFunc
		want float64
		ok   bool
	}{
		{xpath.AggCount, 4, true},
		{xpath.AggSum, 100, true},
		{xpath.AggAvg, 25, true},
		{xpath.AggMin, 0, true},
		{xpath.AggMax, 75, true},
	}
	for _, tc := range cases {
		got, ok := p.Final(tc.fn)
		if got != tc.want || ok != tc.ok {
			t.Fatalf("Final(%v) = %v, %v want %v, %v", tc.fn, got, ok, tc.want, tc.ok)
		}
	}

	// Empty set: count and sum are 0; avg/min/max are undefined.
	var empty AggPartial
	if v, ok := empty.Final(xpath.AggCount); v != 0 || !ok {
		t.Fatalf("count(empty) = %v, %v", v, ok)
	}
	if v, ok := empty.Final(xpath.AggSum); v != 0 || !ok {
		t.Fatalf("sum(empty) = %v, %v", v, ok)
	}
	for _, fn := range []xpath.AggFunc{xpath.AggAvg, xpath.AggMin, xpath.AggMax} {
		if _, ok := empty.Final(fn); ok {
			t.Fatalf("%v over the empty set should be undefined", fn)
		}
	}

	// A non-numeric match poisons sum and avg (XPath number() semantics)
	// but count still counts it and the numeric extrema stand.
	poisoned := AggPartial{Count: 2, Sum: 10, SumNaN: true, Min: 10, Max: 10, HasExtrema: true}
	if v, ok := poisoned.Final(xpath.AggSum); !math.IsNaN(v) || !ok {
		t.Fatalf("poisoned sum = %v, %v, want NaN", v, ok)
	}
	if v, ok := poisoned.Final(xpath.AggAvg); !math.IsNaN(v) || !ok {
		t.Fatalf("poisoned avg = %v, %v, want NaN", v, ok)
	}
	if v, ok := poisoned.Final(xpath.AggCount); v != 2 || !ok {
		t.Fatalf("poisoned count = %v, %v", v, ok)
	}
	if v, ok := poisoned.Final(xpath.AggMin); v != 10 || !ok {
		t.Fatalf("poisoned min = %v, %v", v, ok)
	}
}

func TestAggregateNodes(t *testing.T) {
	mk := func(text string) *xmldb.Node {
		n := xmldb.NewNode("price")
		n.Text = text
		return n
	}
	p := AggregateNodes([]*xmldb.Node{mk("25"), mk("0"), mk("50")})
	want := AggPartial{Count: 3, Sum: 75, Min: 0, Max: 50, HasExtrema: true}
	if p != want {
		t.Fatalf("AggregateNodes = %+v, want %+v", p, want)
	}
	// Non-numeric values poison the sum, skip the extrema, still count.
	p = AggregateNodes([]*xmldb.Node{mk("25"), mk("cheap")})
	if p.Count != 2 || !p.SumNaN || p.Min != 25 || p.Max != 25 || !p.HasExtrema {
		t.Fatalf("mixed AggregateNodes = %+v", p)
	}
	if p := AggregateNodes(nil); p != (AggPartial{}) {
		t.Fatalf("AggregateNodes(nil) = %+v", p)
	}
}

func TestComputeAggregateMatchesExtract(t *testing.T) {
	store := singleSiteStore(t)
	q := pittsburghPath + "/neighborhood[@id='Oakland']/block/parkingSpace/price"
	p, err := ComputeAggregate(store.Root, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Oakland prices: 25, 0, 0, 50.
	want := AggPartial{Count: 4, Sum: 75, Min: 0, Max: 50, HasExtrema: true}
	if p != want {
		t.Fatalf("ComputeAggregate = %+v, want %+v", p, want)
	}
}

func TestDecomposableAggregate(t *testing.T) {
	schema := parkingSchema()
	compile := func(q string) []*Plan {
		t.Helper()
		plans, err := CompileQuery(q, schema)
		if err != nil {
			t.Fatalf("compile %q: %v", q, err)
		}
		return plans
	}
	accept := []string{
		pittsburghPath + "/neighborhood/block/parkingSpace/price",
		pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes']/price",
		pittsburghPath + "//price",
		pittsburghPath + "/neighborhood/@zipcode",
	}
	for _, q := range accept {
		if !DecomposableAggregate(compile(q)) {
			t.Fatalf("%q should be decomposable", q)
		}
	}
	reject := []string{
		// Union: two plans.
		pittsburghPath + "/neighborhood[@id='Oakland']/block | " + pittsburghPath + "/neighborhood[@id='Etna']/block",
		// Nested predicate with an upward reference (gather point).
		pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[not(price > ../parkingSpace/price)]",
		// Existence predicate over a location path: nested, gathers subtrees.
		pittsburghPath + "/neighborhood[block/parkingSpace]/block/parkingSpace",
		// Wildcard step: matches may nest within one subquery's answer.
		pittsburghPath + "/*/block/parkingSpace",
		// Absolute path inside a predicate reads outside the anchor subtree.
		pittsburghPath + "/neighborhood/block[" + pittsburghPath + "/neighborhood]/parkingSpace",
	}
	for _, q := range reject {
		if DecomposableAggregate(compile(q)) {
			t.Fatalf("%q should NOT be decomposable", q)
		}
	}
}

func TestAggregateTargetsDisjoint(t *testing.T) {
	stores, _ := hierarchicalStores(t)
	city := stores["city-site"]
	oakland := idpath(t, pittsburghPath+"/neighborhood[@id='Oakland']")
	shadyside := idpath(t, pittsburghPath+"/neighborhood[@id='Shadyside']")
	block := append(append(xmldb.IDPath{}, oakland...), xmldb.Step{Name: "block", ID: "1"})

	ok := AggregateTargetsDisjoint(city.Root, []Subquery{
		{Target: oakland}, {Target: shadyside},
	})
	if !ok {
		t.Fatal("sibling targets should be disjoint")
	}
	if AggregateTargetsDisjoint(city.Root, []Subquery{{Target: oakland}, {Target: oakland}}) {
		t.Fatal("duplicate targets must not pass")
	}
	if AggregateTargetsDisjoint(city.Root, []Subquery{{Target: oakland}, {Target: block}}) {
		t.Fatal("nested targets must not pass")
	}
	// Local data at/below a target double-counts: the root site owns the
	// whole Oakland subtree in the single-site store.
	solo := singleSiteStore(t)
	if AggregateTargetsDisjoint(solo.Root, []Subquery{{Target: oakland}}) {
		t.Fatal("a target with local data below it must not pass")
	}
}

func TestAggregateSubqueryRendersPinnedQuery(t *testing.T) {
	sq := Subquery{Query: "/usRegion[@id='NE']/state", Target: idpath(t, "/usRegion[@id='NE']")}
	if got := AggregateSubquery(xpath.AggAvg, sq); got != "avg(/usRegion[@id='NE']/state)" {
		t.Fatalf("AggregateSubquery = %q", got)
	}
}

// TestGatherTruncationReturnsPartialAnswer forces the nested gather fixpoint
// past its round bound: every fetched fragment reveals one more remote block
// stub at the gather point, so fresh subqueries never dry up. The gather
// must stop after maxGatherRounds fetch rounds and return the partial answer
// with every still-pending target marked unreachable, not spin or discard
// the gathered work.
func TestGatherTruncationReturnsPartialAnswer(t *testing.T) {
	d := doc(t)
	a := fragment.NewAssignment("main")
	oakland := pittsburghPath + "/neighborhood[@id='Oakland']"
	for i := 1; i <= 2; i++ {
		a.Assign(idpath(t, fmt.Sprintf("%s/block[@id='%d']", oakland, i)), fmt.Sprintf("blk-%d", i))
	}
	stores, _, err := fragment.Partition(d, a)
	if err != nil {
		t.Fatal(err)
	}

	// The min-price predicate puts the gather point at the block step, so
	// every block stub under Oakland becomes a subquery target.
	q := oakland + "/block/parkingSpace[not(price > ../parkingSpace/price)]"
	plans, err := CompileQuery(q, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].NestedIdx < 0 {
		t.Fatal("test needs a nested plan")
	}

	// The adversarial env answers every subquery with a fragment where
	// Oakland holds a brand-new remote block stub, so each evaluation round
	// discovers a fresh gather-point target.
	gen := 0
	env := &seqEnv{fetch: func(ctx context.Context, sq Subquery) Fetched {
		gen++
		dd := doc(t)
		nb := xmldb.FindByIDPath(dd, idpath(t, oakland))
		blk := nb.AddChild(xmldb.NewElem("block", fmt.Sprintf("gen%d", gen)))
		sp := blk.AddChild(xmldb.NewElem("parkingSpace", "1"))
		pr := sp.AddChild(xmldb.NewNode("price"))
		pr.Text = "1"
		aa := fragment.NewAssignment("answer")
		p, _ := xmldb.IDPathOf(blk)
		aa.Assign(p, "elsewhere")
		frs, _, err := fragment.Partition(dd, aa)
		if err != nil {
			t.Fatal(err)
		}
		return Fetched{Frag: frs["answer"].Root}
	}}

	g, err := Gather(context.Background(), stores["main"], plans, env, Options{})
	if err != nil {
		t.Fatalf("a truncated gather returns its partial answer, not an error: %v", err)
	}
	if env.rounds != maxGatherRounds {
		t.Fatalf("gather ran %d fetch rounds, want %d", env.rounds, maxGatherRounds)
	}
	if len(g.Pending) == 0 {
		t.Fatal("Pending should list the outstanding subqueries")
	}
	for _, sq := range g.Pending {
		if !g.Unreachable[sq.Target.Key()] {
			t.Errorf("pending target %s not in Unreachable", sq.Target)
		}
		if n := g.Answer.NodeAt(sq.Target); n == nil || fragment.StatusOf(n) != fragment.StatusUnreachable {
			t.Errorf("pending target %s carries no unreachable marker in the answer", sq.Target)
		}
	}
}
