package qeg

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"

	"irisnet/internal/fragment"
	"irisnet/internal/workload"
	"irisnet/internal/xpath"
)

// Shape-bound plans: Compiler.Compile binds a query's id values into the
// template of its shape. These tests hold every bound plan to CompileQuery,
// which compiles the query's own text: the same answers, node counts and
// subqueries, byte for byte.

// freshQWMix is the benchmark's freshness variant of a QW-Mix query.
func freshQWMix(q string) string {
	return strings.ReplaceAll(q, "available='yes'", "available='yes' and @ts >= now() - 2")
}

// idLiteral matches an id equality in either operand order and quote.
var idLiteral = regexp.MustCompile(`(@id\s*=\s*)'([^']*)'|(@id\s*=\s*)"([^"]*)"|'([^']*)'(\s*=\s*@id)|"([^"]*)"(\s*=\s*@id)`)

// sibling returns q with every id value changed: another query of q's shape.
func sibling(t testing.TB, q string) string {
	t.Helper()
	s := idLiteral.ReplaceAllStringFunc(q, func(m string) string {
		sub := idLiteral.FindStringSubmatch(m)
		switch {
		case sub[1] != "":
			return sub[1] + "'~" + sub[2] + "'"
		case sub[3] != "":
			return sub[3] + `"~` + sub[4] + `"`
		case sub[6] != "":
			return "'~" + sub[5] + "'" + sub[6]
		default:
			return `"~` + sub[7] + `"` + sub[8]
		}
	})
	if shapeOf(s) != shapeOf(q) {
		t.Fatalf("sibling %q of %q has another shape", s, q)
	}
	return s
}

func shapeOf(q string) string {
	s, _ := xpath.Shape(q)
	return s
}

// evalOpts are the evaluations each plan pair is held to: the indexed path
// where the store allows it, and the walker (cache bypass).
var evalOpts = []Options{
	{Now: func() float64 { return 100 }},
	{Now: func() float64 { return 100 }, IgnoreCached: true},
}

// checkShapeBound compiles q through c after warming c on a sibling of q,
// so the template was compiled from other ids than the ones bound, and
// holds the bound plans to CompileQuery on every store. It returns the
// subquery texts the evaluations emitted.
func checkShapeBound(t *testing.T, c *Compiler, q string, schema *xpath.Schema, stores map[string]*fragment.Store) []string {
	t.Helper()
	if _, err := c.Compile(sibling(t, q)); err != nil {
		t.Fatalf("compile sibling of %q: %v", q, err)
	}
	misses := c.Misses.Value()
	got, err := c.Compile(q)
	if err != nil {
		t.Fatalf("Compile(%q): %v", q, err)
	}
	if c.Misses.Value() != misses {
		t.Fatalf("%q compiled anew after a query of its shape", q)
	}
	want, err := CompileQuery(q, schema)
	if err != nil {
		t.Fatalf("CompileQuery(%q): %v", q, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d bound plans, %d compiled", q, len(got), len(want))
	}
	names := make([]string, 0, len(stores))
	for name := range stores {
		names = append(names, name)
	}
	sort.Strings(names)
	var subs []string
	for i := range want {
		for _, name := range names {
			for _, opts := range evalOpts {
				label := fmt.Sprintf("%q branch %d at %s (bypass=%v)", q, i, name, opts.IgnoreCached)
				w, werr := Evaluate(stores[name], want[i], opts)
				g, gerr := Evaluate(stores[name], got[i], opts)
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("%s: errors differ: compiled %v, bound %v", label, werr, gerr)
				}
				if werr != nil {
					continue
				}
				if w.Fragment.String() != g.Fragment.String() || w.Nodes != g.Nodes {
					t.Fatalf("%s: answers differ\ncompiled: %s\nbound:    %s", label, w.Fragment, g.Fragment)
				}
				if len(w.Subqueries) != len(g.Subqueries) {
					t.Fatalf("%s: %d subqueries compiled, %d bound", label, len(w.Subqueries), len(g.Subqueries))
				}
				for k := range w.Subqueries {
					if w.Subqueries[k].Key() != g.Subqueries[k].Key() {
						t.Fatalf("%s: subqueries differ\ncompiled: %s\nbound:    %s", label, w.Subqueries[k].Query, g.Subqueries[k].Query)
					}
					subs = append(subs, w.Subqueries[k].Query)
				}
			}
		}
	}
	return subs
}

// checkCorpus runs checkShapeBound over a corpus and then over every
// distinct subquery text the corpus emitted.
func checkCorpus(t *testing.T, corpus []string, schema *xpath.Schema, stores map[string]*fragment.Store) {
	t.Helper()
	c := NewCompiler(schema, false)
	seen := map[string]bool{}
	var pinned []string
	for _, q := range corpus {
		for _, sq := range checkShapeBound(t, c, q, schema, stores) {
			if !seen[sq] {
				seen[sq] = true
				pinned = append(pinned, sq)
			}
		}
	}
	for _, sq := range pinned {
		checkShapeBound(t, c, sq, schema, stores)
	}
}

// paperStores is the paper document owned by one site ("solo") and
// partitioned like Figure 6(iv), every store sealed so the indexed path
// can run.
func paperStores(t *testing.T) map[string]*fragment.Store {
	stores := map[string]*fragment.Store{"solo": singleSiteStore(t).Seal()}
	hier, _ := hierarchicalStores(t)
	for name, s := range hier {
		stores[name] = s.Seal()
	}
	return stores
}

func TestShapeBoundPlansMatchCompileQuery(t *testing.T) {
	t.Run("paper", func(t *testing.T) {
		corpus := append([]string{
			pittsburghPath + "/neighborhood[@id='Oakland' and @ts >= now() - 30 and available-spaces > 5]/block",
			pittsburghPath + "/neighborhood[not(@id='Etna')]/block[@id = \"1\"]/parkingSpace",
			pittsburghPath + "/neighborhood['Oakland' = @id]/block[@id='1' and @id='2']",
			pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='1' or price > 20]",
			"/usRegion[@id='NE']/state[@id='PA']//neighborhood[@id='Shadyside']//parkingSpace[available='yes']",
		}, indexedCorpus...)
		checkCorpus(t, corpus, parkingSchema(), paperStores(t))
	})

	t.Run("random", func(t *testing.T) {
		schema := randSchema()
		r := rand.New(rand.NewSource(7))
		for doc := 0; doc < 12; doc++ {
			d := randDoc(r)
			stores, _, err := fragment.Partition(d, randAssign(r, d, 3))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stores {
				s.Seal()
			}
			var corpus []string
			for i := 0; i < 25; i++ {
				corpus = append(corpus, randQuery(r))
			}
			checkCorpus(t, corpus, schema, stores)
		}
	})

	t.Run("qwmix", func(t *testing.T) {
		db, stores := qwMixStores(t)
		gen := workload.NewGen(db, workload.QWMix, 3)
		var corpus []string
		for i := 0; i < 40; i++ {
			q, _ := gen.Next()
			corpus = append(corpus, q, freshQWMix(q))
		}
		// The queries TestWireGolden (internal/site) sends a city site.
		city := db.CityPath(0).String()
		corpus = append(corpus,
			db.BlockQuery(0, 0, 0),
			city+"/neighborhood/block[@id='1']/parkingSpace[available='yes']",
			db.BlockPath(0, 0, 0).String()+"/parkingSpace/price",
			city+"/neighborhood/block[@id='1']/parkingSpace/price")
		checkCorpus(t, corpus, db.Schema, stores)
	})
}

// qwMixStores partitions the paper's small parking database with one site
// per neighborhood below a root site, sealed.
func qwMixStores(t testing.TB) (*workload.DB, map[string]*fragment.Store) {
	t.Helper()
	db := workload.Build(workload.PaperSmall())
	a := fragment.NewAssignment("root-site")
	for c := 0; c < db.Cfg.Cities; c++ {
		for nb := 0; nb < db.Cfg.Neighborhoods; nb++ {
			a.Assign(db.NeighborhoodPath(c, nb), fmt.Sprintf("nb-%d-%d", c, nb))
		}
	}
	stores, _, err := fragment.Partition(db.Doc, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		s.Seal()
	}
	return db, stores
}

// TestShapeBindingDoesNotLeak compiles a query and then another of the same
// shape: the second one's answer and subqueries must name only its own ids,
// never the first one's, and the first one must still answer as before.
func TestShapeBindingDoesNotLeak(t *testing.T) {
	stores := paperStores(t)
	c := NewCompiler(parkingSchema(), false)
	a := pittsburghPath + "/neighborhood[@id='Oakland']/block[@id='2']/parkingSpace[available='yes']"
	b := pittsburghPath + "/neighborhood[@id='Shadyside']/block[@id='1']/parkingSpace[available='yes']"
	if _, err := c.Compile(a); err != nil {
		t.Fatal(err)
	}
	plans, err := c.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shapes() != 1 {
		t.Fatalf("%d shapes cached, want 1", c.Shapes())
	}

	// At the city site the neighborhood is incomplete: one subquery, for
	// Shadyside's block 1.
	res, err := Evaluate(stores["city-site"], plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subqueries) != 1 {
		t.Fatalf("subqueries = %v", res.Subqueries)
	}
	sq := res.Subqueries[0]
	if !strings.Contains(sq.Target.Key(), "Shadyside") || strings.Contains(sq.Query, "Oakland") ||
		!strings.HasSuffix(sq.Query, `neighborhood[@id='Shadyside']/block[(@id = "1")]/parkingSpace[(available = "yes")]`) {
		t.Fatalf("subquery leaks the other query's ids: %s -> %s", sq.Target.Key(), sq.Query)
	}

	// At the owner the answer holds Shadyside's block 1 and nothing of
	// Oakland's block 2.
	res, err = Evaluate(stores["solo"], plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Fragment.String()
	if !strings.Contains(got, `<neighborhood id="Shadyside"`) || strings.Contains(got, `<block id="2" status="complete"`) {
		t.Fatalf("answer leaks the other query's ids: %s", got)
	}
	want, err := CompileQuery(b, parkingSchema())
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Evaluate(stores["solo"], want[0], Options{})
	if got != ref.Fragment.String() {
		t.Fatalf("bound answer\n%s\ndiffers from compiled\n%s", got, ref.Fragment)
	}

	// The first query's binding is untouched by the second.
	plans, err = c.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err = Evaluate(stores["solo"], plans[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Fragment.String(); !strings.Contains(s, `<block id="2" status="complete"`) || strings.Contains(s, `<neighborhood id="Shadyside" zipcode`) {
		t.Fatalf("first query's answer changed: %s", s)
	}
}

// TestPlanCacheMissesFlatOnQWMix warms a compiler on QW-Mix, with and
// without the freshness predicate, and on the subqueries those queries
// emit at the root site; then 1,000 fresh draws of each must compile
// nothing.
func TestPlanCacheMissesFlatOnQWMix(t *testing.T) {
	db, stores := qwMixStores(t)
	c := NewCompiler(db.Schema, false)
	compile := func(q string) {
		plans, err := c.Compile(q)
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		for _, p := range plans {
			res, err := Evaluate(stores["root-site"], p, Options{Now: func() float64 { return 100 }})
			if err != nil {
				t.Fatal(err)
			}
			for _, sq := range res.Subqueries {
				if _, err := c.Compile(sq.Query); err != nil {
					t.Fatalf("Compile(%q): %v", sq.Query, err)
				}
			}
		}
	}
	gen := workload.NewGen(db, workload.QWMix, 1)
	for i := 0; i < 200; i++ {
		q, _ := gen.Next()
		compile(q)
		compile(freshQWMix(q))
	}
	warm := c.Misses.Value()
	for i := 0; i < 1000; i++ {
		q, _ := gen.Next()
		compile(q)
		compile(freshQWMix(q))
	}
	if got := c.Misses.Value(); got != warm {
		t.Fatalf("plan cache misses grew from %d to %d over 1,000 warm draws", warm, got)
	}
	t.Logf("%d shapes after %d misses", c.Shapes(), warm)
}

// BenchmarkCompile measures the fast path of plan creation: a repeated
// text (warm hit) and a new text of a cached shape, which scans the text
// and binds its ids without a parse.
func BenchmarkCompile(b *testing.B) {
	db := workload.Build(workload.PaperSmall())
	b.Run("warm-hit", func(b *testing.B) {
		c := NewCompiler(db.Schema, false)
		q := db.TwoNeighborhoodQuery(0, 0, 3, 1, 7)
		if _, err := c.Compile(q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compile(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("new-text", func(b *testing.B) {
		c := NewCompiler(db.Schema, false)
		texts := make([]string, 256)
		for i := range texts {
			texts[i] = db.TwoNeighborhoodQuery(i%2, i%3, i%20, (i+1)%3, (i*7)%20)
		}
		if _, err := c.Compile(texts[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compile(texts[i%len(texts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
