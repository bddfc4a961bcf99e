package xpatheval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// Differential testing: a tiny, independently written reference evaluator
// for the path fragment (child//descendant steps with simple predicates)
// is compared against the real evaluator on random documents and queries.
// The reference trades all efficiency for obviousness.

// refSelect evaluates a parsed path by brute force.
func refSelect(root *xmldb.Node, p *xpath.Path) []*xmldb.Node {
	cur := []*xmldb.Node{}
	if p.Absolute {
		// The conceptual document node has the root element as its child.
		cur = append(cur, &xmldb.Node{Children: []*xmldb.Node{root}})
	}
	for _, s := range p.Steps {
		var next []*xmldb.Node
		seen := map[*xmldb.Node]bool{}
		for _, n := range cur {
			for _, cand := range refAxis(n, s) {
				if seen[cand] {
					continue
				}
				if refPreds(root, cand, s.Preds) {
					seen[cand] = true
					next = append(next, cand)
				}
			}
		}
		cur = next
	}
	return cur
}

func refAxis(n *xmldb.Node, s *xpath.LocStep) []*xmldb.Node {
	var out []*xmldb.Node
	switch s.Axis {
	case xpath.AxisChild:
		for _, c := range n.Children {
			if refTest(s.Test, c) {
				out = append(out, c)
			}
		}
	case xpath.AxisDescendantOrSelf:
		n.Walk(func(x *xmldb.Node) bool {
			if x.Name != "" && refTest(s.Test, x) {
				out = append(out, x)
			}
			return true
		})
	}
	return out
}

func refTest(t xpath.NodeTest, n *xmldb.Node) bool {
	return t.AnyNode || t.Name == "*" || t.Name == n.Name
}

// refPreds supports the predicate shapes the generator produces:
// @attr='lit', child='lit', child>num, and disjunctions of @id tests.
func refPreds(root *xmldb.Node, n *xmldb.Node, preds []xpath.Expr) bool {
	for _, p := range preds {
		if !refPred(n, p) {
			return false
		}
	}
	return true
}

func refPred(n *xmldb.Node, e xpath.Expr) bool {
	switch v := e.(type) {
	case *xpath.Binary:
		switch v.Op {
		case xpath.TokOr:
			return refPred(n, v.L) || refPred(n, v.R)
		case xpath.TokAnd:
			return refPred(n, v.L) && refPred(n, v.R)
		case xpath.TokEq:
			l := refStrings(n, v.L)
			r := refStrings(n, v.R)
			for _, a := range l {
				for _, b := range r {
					if a == b {
						return true
					}
				}
			}
			return false
		case xpath.TokGt:
			for _, a := range refStrings(n, v.L) {
				for _, b := range refStrings(n, v.R) {
					if num(a) > num(b) {
						return true
					}
				}
			}
			return false
		}
	}
	panic(fmt.Sprintf("reference evaluator: unsupported predicate %s", e))
}

func refStrings(n *xmldb.Node, e xpath.Expr) []string {
	switch v := e.(type) {
	case *xpath.Literal:
		return []string{v.Value}
	case *xpath.Number:
		return []string{fmt.Sprintf("%g", v.Value)}
	case *xpath.Path:
		s := v.Steps[0]
		if s.Axis == xpath.AxisAttribute {
			if val, ok := n.Attr(s.Test.Name); ok {
				return []string{val}
			}
			return nil
		}
		var out []string
		for _, c := range n.ChildrenNamed(s.Test.Name) {
			out = append(out, StringValue(c))
		}
		return out
	}
	panic(fmt.Sprintf("reference evaluator: unsupported operand %T", e))
}

func num(s string) float64 {
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
		return -1e308
	}
	return f
}

// diffDoc builds a random document compatible with the reference evaluator.
func diffDoc(r *rand.Rand) *xmldb.Node {
	root := xmldb.NewElem("root", "R")
	for i := 0; i < 1+r.Intn(3); i++ {
		g := root.AddChild(xmldb.NewElem("group", fmt.Sprintf("g%d", i)))
		g.SetAttr("kind", []string{"a", "b"}[r.Intn(2)])
		for j := 0; j < r.Intn(4); j++ {
			it := g.AddChild(xmldb.NewElem("item", fmt.Sprintf("i%d", j)))
			val := it.AddChild(xmldb.NewNode("value"))
			val.Text = fmt.Sprintf("%d", r.Intn(50))
			if r.Intn(2) == 0 {
				tag := it.AddChild(xmldb.NewNode("tag"))
				tag.Text = []string{"hot", "cold"}[r.Intn(2)]
			}
		}
	}
	return root
}

// diffQuery generates a random query in the supported fragment.
func diffQuery(r *rand.Rand) string {
	groupPred := []string{
		"", "[@id='g0']", "[@kind='a']", "[@id='g0' or @id='g2']",
	}[r.Intn(4)]
	itemPred := []string{
		"", "[@id='i1']", "[tag='hot']", "[value > 25]", "[tag='hot' or tag='cold']",
	}[r.Intn(5)]
	switch r.Intn(4) {
	case 0:
		return "/root/group" + groupPred
	case 1:
		return "/root/group" + groupPred + "/item" + itemPred
	case 2:
		return "//item" + itemPred
	default:
		return "/root/group" + groupPred + "/item" + itemPred + "/value"
	}
}

func TestDifferentialAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := diffDoc(r)
		for trial := 0; trial < 5; trial++ {
			q := diffQuery(r)
			path, err := xpath.ParsePath(q)
			if err != nil {
				t.Logf("seed %d: parse %q: %v", seed, q, err)
				return false
			}
			got, err := Select(path, &Context{Root: doc}, doc)
			if err != nil {
				t.Logf("seed %d: eval %q: %v", seed, q, err)
				return false
			}
			want := refSelect(doc, path)
			if !samePointerSet(got, want) {
				t.Logf("seed %d query %q:\n got  %s\n want %s", seed, q, dump(got), dump(want))
				return false
			}
			slow, err := selectSlow(path, &Context{Root: doc}, doc)
			if err != nil || !samePointerSet(got, slow) {
				t.Logf("seed %d query %q: fast path %s, every predicate through eval %s (err %v)", seed, q, dump(got), dump(slow), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func samePointerSet(a NodeSet, b []*xmldb.Node) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[*xmldb.Node]int{}
	for _, n := range a {
		set[n]++
	}
	for _, n := range b {
		set[n]--
	}
	for _, v := range set {
		if v != 0 {
			return false
		}
	}
	return true
}

func dump(ns []*xmldb.Node) string {
	var out []string
	for _, n := range ns {
		out = append(out, n.String())
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// selectSlow is Select with every step predicate evaluated by eval, never
// by its fast form: the reference the fast path must agree with.
func selectSlow(e xpath.Expr, ctx *Context, root *xmldb.Node) (NodeSet, error) {
	v, err := (&evaluator{ctx: ctx, slow: true}).eval(e, root)
	if err != nil {
		return nil, err
	}
	return v.(NodeSet), nil
}

// nodeKey names a selected node for comparing two evaluations: the node
// itself, or for the synthetic attribute and text nodes built fresh by each
// evaluation, their owner, name and value.
func nodeKey(n *xmldb.Node) string {
	if IsAttrNode(n) || n.Name == "#text" {
		return fmt.Sprintf("%p/%s=%s", n.Parent, n.Name, n.Text)
	}
	return fmt.Sprintf("%p", n)
}

func sameNodes(a, b NodeSet) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]int{}
	for _, n := range a {
		set[nodeKey(n)]++
	}
	for _, n := range b {
		set[nodeKey(n)]--
	}
	for _, v := range set {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestFastPathMatchesSlowPath holds Select, which decides each predicate
// by its fast form where it has one, to selectSlow on the shapes where the
// two could part: a fast form that must decline, candidates that are
// attribute nodes, numeric against string equality, != over a child that
// is not there, and disjunctions.
func TestFastPathMatchesSlowPath(t *testing.T) {
	doc, err := xmldb.ParseString(`<doc id="R">
		<group id="g0" kind="a">
			<item id="i0"><value>7</value><tag>hot</tag></item>
			<item id="i1"><value>7.0</value></item>
			<item id="i2"><value>07</value><tag>cold</tag></item>
			<item id="i3"><value><sub>7</sub></value></item>
			<item id="i4"><value><sub>3</sub></value><value>3</value></item>
			<item id="i5"><value>x<sub>7</sub></value></item>
		</group>
		<group id="g1" kind="b">
			<item id="i0"><value>12</value></item>
		</group>
	</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		// Fallback: a field child with element children.
		"//item[value='7']",
		"//item[value=7]",
		"//item[value='3']",
		"//item[value > 5]",
		"//item[value != '7']",
		"//item[value='x7']",
		"/doc/group/item[value='7' and @id='i3']",
		// Attribute-step candidates, with and without predicates.
		"/doc/group/@kind",
		"/doc/group/@*",
		"//item/@id[@kind]",
		"//item/@id[value='7']",
		"//item/@id[. = 'i1']",
		// Numeric against string literal equality.
		"//item[value=7.0]",
		"//item[value='7.0']",
		"//item[value='07']",
		"//item[7=value]",
		"//item[value = 12]",
		// != over a missing child.
		"//item[tag != 'hot']",
		"//item[tag != 5]",
		"//item[missing != 'x']",
		"//item[not(tag = 'hot')]",
		// Disjunctions: an alternative that declines, one that holds, and
		// one with no fast form.
		"//item[value='7' or tag='hot']",
		"//item[value='3' or tag='x']",
		"//item[tag='cold' or value > 5]",
		"//item[@id='i3' and (value='7' or value='3')]",
		"//item[(@id='i0' and tag='hot') or (@id='i4' and value=3)]",
		"//item[tag='hot' or not(tag)]",
		"/doc/group[@id='g0' or @id='g1']/item[@id='i0' or @id='i2']",
		// Steps other than the child axis, from several context nodes.
		"//item/..",
		"//value/ancestor::group[@kind='a']",
		"//group[@id='g0']/descendant::sub[. = 7]",
		"//item/text()",
		"//item[count(value[sub]) > 0]",
	} {
		e, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := Select(e, &Context{Root: doc}, doc)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := selectSlow(e, &Context{Root: doc}, doc)
		if err != nil {
			t.Fatalf("%s: slow path: %v", q, err)
		}
		if !sameNodes(got, want) {
			t.Errorf("%s: fast path %s, every predicate through eval %s", q, dump(got), dump(want))
		}
	}
}

// sinkNodes keeps the growth measurement's slice on the heap, as Select's
// result is.
var sinkNodes NodeSet

// TestSelectAllocsIndependentOfCandidates pins the fast path's allocation
// profile: a one-step query over 100 candidates allocates more than over 10
// only by the growth of its longer result slice.
func TestSelectAllocsIndependentOfCandidates(t *testing.T) {
	e := xpath.MustParsePath("parkingSpace[available='yes']")
	allocs := func(spaces int) (float64, int) {
		block := xmldb.NewElem("block", "1")
		for i := 0; i < spaces; i++ {
			sp := block.AddChild(xmldb.NewElem("parkingSpace", fmt.Sprint(i)))
			sp.AddChild(xmldb.NewNode("price")).Text = "25"
			sp.AddChild(xmldb.NewNode("available")).Text = []string{"yes", "no"}[i%2]
		}
		ctx := &Context{Root: block}
		ns, err := Select(e, ctx, block)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() { sinkNodes, _ = Select(e, ctx, block) }), len(ns)
	}
	growth := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			sinkNodes = nil
			for i := 0; i < n; i++ {
				sinkNodes = append(sinkNodes, nil)
			}
		})
	}
	small, nSmall := allocs(10)
	large, nLarge := allocs(100)
	if extra, slack := large-small, growth(nLarge)-growth(nSmall); extra > slack {
		t.Errorf("Select allocates %.0f times over 10 spaces and %.0f over 100: %.0f more, result growth explains %.0f", small, large, extra, slack)
	}
}
