package qeg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"irisnet/internal/fragment"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// The golden property of the whole system (Section 3's correctness claim):
// for ANY partitioning satisfying invariants I1/I2, ANY entry site, and ANY
// cache state produced by merging prior answers, the distributed
// query-evaluate-gather answer equals the centralized answer on the full
// document. With a site down, the answer is a correct partial answer
// instead. Every run goes through Gather, the loop each site runs, with the
// sequential env of qeg_test.go standing in for the network.

func randSchema() *xpath.Schema {
	return &xpath.Schema{
		Children: map[string][]string{
			"region": {"city"},
			"city":   {"block", "stats"},
			"block":  {"spot"},
			"spot":   {"available", "price"},
		},
		IDable: map[string]bool{
			"region": true, "city": true, "block": true, "spot": true,
		},
	}
}

// randDoc builds a random sensor document in the region/city/block/spot
// hierarchy with data values.
func randDoc(r *rand.Rand) *xmldb.Node {
	root := xmldb.NewElem("region", "R")
	for c := 0; c < 1+r.Intn(3); c++ {
		city := root.AddChild(xmldb.NewElem("city", fmt.Sprintf("c%d", c)))
		city.SetAttr("pop", fmt.Sprintf("%d", 10+r.Intn(90)))
		if r.Intn(2) == 0 {
			st := city.AddChild(xmldb.NewNode("stats"))
			st.Text = fmt.Sprintf("%d", r.Intn(10))
		}
		for b := 0; b < r.Intn(4); b++ {
			blk := city.AddChild(xmldb.NewElem("block", fmt.Sprintf("b%d", b)))
			blk.SetAttr("meter", []string{"2h", "4h"}[r.Intn(2)])
			for s := 0; s < r.Intn(4); s++ {
				spot := blk.AddChild(xmldb.NewElem("spot", fmt.Sprintf("s%d", s)))
				av := spot.AddChild(xmldb.NewNode("available"))
				av.Text = []string{"yes", "no"}[r.Intn(2)]
				pr := spot.AddChild(xmldb.NewNode("price"))
				pr.Text = fmt.Sprintf("%d", 25*r.Intn(4))
			}
		}
	}
	return root
}

// randAssign randomly assigns IDable nodes to up to nSites sites.
func randAssign(r *rand.Rand, d *xmldb.Node, nSites int) *fragment.Assignment {
	a := fragment.NewAssignment("s0")
	var walk func(n *xmldb.Node, p xmldb.IDPath)
	walk = func(n *xmldb.Node, p xmldb.IDPath) {
		if r.Intn(2) == 0 {
			a.Assign(p, fmt.Sprintf("s%d", r.Intn(nSites)))
		}
		for _, c := range n.Children {
			if c.ID() != "" {
				walk(c, p.Child(c.Name, c.ID()))
			}
		}
	}
	walk(d, xmldb.IDPath{{Name: d.Name, ID: d.ID()}})
	return a
}

// randQuery generates a random query against the random schema.
func randQuery(r *rand.Rand) string {
	cityPred := []string{
		"", "[@id='c0']", "[@id='c1']", "[@id='c0' or @id='c1']",
		"[@pop > 50]", "[@id='c0' and @pop > 20]", "[stats > 3]",
	}[r.Intn(7)]
	blockPred := []string{
		"", "[@id='b0']", "[@id='b0' or @id='b2']", "[@meter='2h']",
	}[r.Intn(4)]
	spotPred := []string{
		"", "[@id='s0']", "[available='yes']", "[price='0']",
		"[available='yes' and price='0']", "[price > 20]",
	}[r.Intn(6)]
	switch r.Intn(6) {
	case 0:
		return "/region[@id='R']/city" + cityPred
	case 1:
		return "/region[@id='R']/city" + cityPred + "/block" + blockPred
	case 2:
		return "/region[@id='R']/city" + cityPred + "/block" + blockPred + "/spot" + spotPred
	case 3:
		return "//spot" + spotPred
	case 4:
		return "/region[@id='R']/city" + cityPred + "//spot" + spotPred
	default:
		return "/region[@id='R']/city" + cityPred + "/block" + blockPred + "/spot" + spotPred + "/available"
	}
}

// runDistributed gathers q entering at entry, with every subquery to the
// site down failing ("" for none).
func runDistributed(t testing.TB, stores map[string]*fragment.Store, a *fragment.Assignment, entry, down, q string, schema *xpath.Schema) (*Gathered, error) {
	plans, err := CompileQuery(q, schema)
	if err != nil {
		return nil, err
	}
	return Gather(context.Background(), stores[entry], plans, resolver(t, stores, a, schema, down, nil), Options{})
}

// extract is the answer set a client reads out of a gathered answer.
func extract(g *Gathered, q string) ([]string, error) {
	ans, err := ExtractAnswer(g.Answer.Root, q, nil)
	if err != nil {
		return nil, err
	}
	return canonSet(ans), nil
}

// locKey names a node by the names and ids on its path from the root, so a
// node of the full document and its copy in an answer share a key.
func locKey(n *xmldb.Node) string {
	k := "/" + n.Name + "[" + n.ID() + "]"
	if n.Parent != nil {
		return locKey(n.Parent) + k
	}
	return k
}

// checkPartial holds a gather run with the site down dead to the
// partial-answer property: every node the answer selects is in the
// centralized answer, every centralized node it lacks lies at or below an
// unreachable key, and every unreachable key is a target down owns.
func checkPartial(d *xmldb.Node, a *fragment.Assignment, down, q string, g *Gathered) error {
	expr, err := xpath.Parse(q)
	if err != nil {
		return err
	}
	expr = xpath.StripConsistency(expr)
	want, err := xpatheval.Select(expr, &xpatheval.Context{Root: d}, d)
	if err != nil {
		return err
	}
	got, err := xpatheval.Select(expr, &xpatheval.Context{Root: g.Answer.Root}, g.Answer.Root)
	if err != nil {
		return err
	}
	central, answered := map[string]bool{}, map[string]bool{}
	for _, n := range want {
		central[locKey(n)] = true
	}
	for _, n := range got {
		// Extraction keeps only selected nodes that carry local information.
		if !fragment.EffectiveStatus(n).HasLocalInfo() {
			continue
		}
		if !central[locKey(n)] {
			return fmt.Errorf("answer node %s is not in the centralized answer", locKey(n))
		}
		answered[locKey(n)] = true
	}
	for _, n := range want {
		if answered[locKey(n)] {
			continue
		}
		below := false
		for c := n; c != nil && !below; c = c.Parent {
			p, ok := xmldb.IDPathOf(c)
			below = ok && g.Unreachable[p.Key()]
		}
		if !below {
			return fmt.Errorf("%s is missing but lies below no unreachable key %v", locKey(n), g.Unreachable)
		}
	}
	for k := range g.Unreachable {
		if p, err := xmldb.ParseIDPath(k); err != nil || a.OwnerOf(p) != down {
			return fmt.Errorf("unreachable %s is not a target of the down site %s", k, down)
		}
	}
	return nil
}

func TestPropertyDistributedEqualsCentralized(t *testing.T) {
	schema := randSchema()
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randDoc(r)
		a := randAssign(r, d, 3)
		stores, _, err := fragment.Partition(d, a)
		if err != nil {
			t.Logf("seed %d: partition: %v", seed, err)
			return false
		}
		sites := a.Sites()
		for trial := 0; trial < 4; trial++ {
			q := randQuery(r)
			want := centralized(t, d, q)
			for _, entry := range sites {
				// Every other site takes a turn being down: the answer is then
				// a correct partial answer.
				for _, down := range sites {
					if down == entry {
						continue
					}
					g, err := runDistributed(t, stores, a, entry, down, q, schema)
					if err == nil {
						err = checkPartial(d, a, down, q, g)
					}
					if err != nil {
						t.Logf("seed %d query %q entry %s down %s: %v", seed, q, entry, down, err)
						return false
					}
				}
				g, err := runDistributed(t, stores, a, entry, "", q, schema)
				var got []string
				if err == nil && len(g.Unreachable) > 0 {
					err = fmt.Errorf("partial answer with every site up: %v", g.Unreachable)
				}
				if err == nil {
					got, err = extract(g, q)
				}
				if err != nil {
					t.Logf("seed %d query %q entry %s: %v", seed, q, entry, err)
					return false
				}
				if len(got) != len(want) {
					t.Logf("seed %d query %q entry %s: got %d want %d\n got: %v\nwant: %v",
						seed, q, entry, len(got), len(want), got, want)
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("seed %d query %q entry %s: mismatch\n got: %v\nwant: %v",
							seed, q, entry, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCachingPreservesCorrectness(t *testing.T) {
	// Warm caches with random query answers, then verify fresh queries are
	// still answered correctly and invariants hold.
	schema := randSchema()
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randDoc(r)
		a := randAssign(r, d, 3)
		stores, owned, err := fragment.Partition(d, a)
		if err != nil {
			return false
		}
		siteNames := a.Sites()
		// Warm: run a few queries and merge their answers into the entry
		// site's store (the paper's aggressive caching).
		for warm := 0; warm < 3; warm++ {
			entry := siteNames[r.Intn(len(siteNames))]
			q := randQuery(r)
			g, err := runDistributed(t, stores, a, entry, "", q, schema)
			if err != nil {
				t.Logf("seed %d warm %q: %v", seed, q, err)
				return false
			}
			if err := stores[entry].MergeFragment(g.Answer.Root); err != nil {
				t.Logf("seed %d warm merge: %v", seed, err)
				return false
			}
			if errs := fragment.CheckInvariants(stores[entry], d, owned[entry], true); len(errs) > 0 {
				t.Logf("seed %d invariants after caching: %v", seed, errs)
				return false
			}
		}
		// Verify: random queries from random entries still match central.
		for trial := 0; trial < 3; trial++ {
			entry := siteNames[r.Intn(len(siteNames))]
			q := randQuery(r)
			want := centralized(t, d, q)
			g, err := runDistributed(t, stores, a, entry, "", q, schema)
			var got []string
			if err == nil {
				got, err = extract(g, q)
			}
			if err != nil {
				t.Logf("seed %d verify %q: %v", seed, q, err)
				return false
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("seed %d query %q entry %s after caching:\n got: %v\nwant: %v",
					seed, q, entry, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAnswersAreValidFragments(t *testing.T) {
	schema := randSchema()
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randDoc(r)
		a := randAssign(r, d, 3)
		stores, _, err := fragment.Partition(d, a)
		if err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			q := randQuery(r)
			entry := a.Sites()[r.Intn(len(a.Sites()))]
			g, err := runDistributed(t, stores, a, entry, "", q, schema)
			if err != nil {
				return false
			}
			if err := fragment.ValidateFragment(g.Answer.Root); err != nil {
				t.Logf("seed %d query %q: invalid answer fragment: %v", seed, q, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
