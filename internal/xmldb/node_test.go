package xmldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const sampleDoc = `
<usRegion id="NE">
  <state id="PA">
    <county id="Allegheny">
      <city id="Pittsburgh">
        <neighborhood id="Oakland" zipcode="15213">
          <block id="1">
            <parkingSpace id="1"><available>yes</available></parkingSpace>
            <parkingSpace id="2"><available>no</available></parkingSpace>
          </block>
          <block id="2"/>
          <available-spaces>8</available-spaces>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>`

func mustSample(t *testing.T) *Node {
	t.Helper()
	n, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatalf("parse sample: %v", err)
	}
	return n
}

func TestParseBasic(t *testing.T) {
	root := mustSample(t)
	if root.Name != "usRegion" {
		t.Fatalf("root name = %q, want usRegion", root.Name)
	}
	if got := root.ID(); got != "NE" {
		t.Fatalf("root id = %q, want NE", got)
	}
	state := root.ChildNamed("state")
	if state == nil || state.ID() != "PA" {
		t.Fatalf("missing state PA")
	}
	if state.Parent != root {
		t.Fatalf("parent pointer not set")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"<a><b></a>",
		"<a/><b/>",
		"not xml at all <",
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestTextContent(t *testing.T) {
	root := mustSample(t)
	ps := findFirst(root, "parkingSpace")
	if ps == nil {
		t.Fatal("no parkingSpace")
	}
	av := ps.ChildNamed("available")
	if av == nil || av.Text != "yes" {
		t.Fatalf("available text = %v, want yes", av)
	}
}

func findFirst(n *Node, name string) *Node {
	var out *Node
	n.Walk(func(x *Node) bool {
		if out != nil {
			return false
		}
		if x.Name == name {
			out = x
			return false
		}
		return true
	})
	return out
}

func TestAttrOps(t *testing.T) {
	n := NewElem("block", "7")
	if v, ok := n.Attr("id"); !ok || v != "7" {
		t.Fatalf("Attr(id) = %q,%v", v, ok)
	}
	n.SetAttr("id", "8")
	if n.ID() != "8" {
		t.Fatalf("SetAttr replace failed: %q", n.ID())
	}
	n.SetAttr("zip", "15213")
	if n.AttrOr("zip", "x") != "15213" {
		t.Fatal("AttrOr present failed")
	}
	if n.AttrOr("nope", "dflt") != "dflt" {
		t.Fatal("AttrOr default failed")
	}
	if !n.DelAttr("zip") {
		t.Fatal("DelAttr existing returned false")
	}
	if n.DelAttr("zip") {
		t.Fatal("DelAttr missing returned true")
	}
}

func TestChildOps(t *testing.T) {
	p := NewNode("city")
	a := p.AddChild(NewElem("neighborhood", "Oakland"))
	b := p.AddChild(NewElem("neighborhood", "Shadyside"))
	if p.Child("neighborhood", "Oakland") != a {
		t.Fatal("Child lookup failed")
	}
	if got := len(p.ChildrenNamed("neighborhood")); got != 2 {
		t.Fatalf("ChildrenNamed = %d, want 2", got)
	}
	if !p.RemoveChild(a) {
		t.Fatal("RemoveChild existing returned false")
	}
	if p.RemoveChild(a) {
		t.Fatal("RemoveChild removed returned true")
	}
	if p.Child("neighborhood", "Oakland") != nil {
		t.Fatal("removed child still found")
	}
	if b.Root() != p {
		t.Fatal("Root failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	root := mustSample(t)
	cl := root.Clone()
	if !Equal(root, cl) {
		t.Fatal("clone not equal to original")
	}
	if cl.Parent != nil {
		t.Fatal("clone parent not nil")
	}
	// Mutating the clone must not affect the original.
	findFirst(cl, "available").Text = "no"
	if Equal(root, cl) {
		t.Fatal("mutation of clone affected original equality")
	}
}

func TestEqualUnordered(t *testing.T) {
	a := MustParse(`<b id="1"><p id="1"/><p id="2"/></b>`)
	b := MustParse(`<b id="1"><p id="2"/><p id="1"/></b>`)
	if !Equal(a, b) {
		t.Fatal("sibling order should not matter")
	}
	c := MustParse(`<b id="1"><p id="2"/><p id="3"/></b>`)
	if Equal(a, c) {
		t.Fatal("different ids compared equal")
	}
}

func TestEqualAttrOrder(t *testing.T) {
	a := MustParse(`<n id="X" zip="15213"/>`)
	b := MustParse(`<n zip="15213" id="X"/>`)
	if !Equal(a, b) {
		t.Fatal("attribute order should not matter")
	}
}

func TestEqualNil(t *testing.T) {
	if !Equal(nil, nil) {
		t.Fatal("nil == nil")
	}
	if Equal(nil, NewNode("a")) || Equal(NewNode("a"), nil) {
		t.Fatal("nil vs node")
	}
}

func TestIsIDable(t *testing.T) {
	root := mustSample(t)
	if !root.IsIDable() {
		t.Fatal("root must be IDable")
	}
	oak := findFirst(root, "neighborhood")
	if !oak.IsIDable() {
		t.Fatal("Oakland should be IDable")
	}
	av := findFirst(root, "available-spaces")
	if av.IsIDable() {
		t.Fatal("available-spaces has no id; not IDable")
	}
	// A node below a non-IDable node is not IDable even with an id.
	ch := av.AddChild(NewElem("x", "1"))
	if ch.IsIDable() {
		t.Fatal("child of non-IDable node must not be IDable")
	}
	// Duplicate sibling ids break IDability.
	blk := findFirst(root, "block")
	dup := NewElem("parkingSpace", "1")
	blk.AddChild(dup)
	if dup.IsIDable() {
		t.Fatal("duplicate sibling id must not be IDable")
	}
}

func TestIDableChildren(t *testing.T) {
	root := mustSample(t)
	oak := findFirst(root, "neighborhood")
	ids := oak.IDableChildren()
	if len(ids) != 2 {
		t.Fatalf("IDable children of Oakland = %d, want 2 blocks", len(ids))
	}
	non := oak.NonIDableChildren()
	if len(non) != 1 || non[0].Name != "available-spaces" {
		t.Fatalf("non-IDable children = %v", non)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	root := mustSample(t)
	re, err := ParseString(root.String())
	if err != nil {
		t.Fatalf("reparse compact: %v", err)
	}
	if !Equal(root, re) {
		t.Fatal("compact round trip lost information")
	}
	re2, err := ParseString(root.Indented())
	if err != nil {
		t.Fatalf("reparse indented: %v", err)
	}
	if !Equal(root, re2) {
		t.Fatal("indented round trip lost information")
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := NewNode("note")
	n.SetAttr("msg", `a<b&"c"`)
	n.Text = "x < y && z > w"
	re, err := ParseString(n.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v", err)
	}
	if v, _ := re.Attr("msg"); v != `a<b&"c"` {
		t.Fatalf("attr escaping round trip = %q", v)
	}
	if re.Text != "x < y && z > w" {
		t.Fatalf("text escaping round trip = %q", re.Text)
	}
}

func TestIDPathOfAndFind(t *testing.T) {
	root := mustSample(t)
	ps := findFirst(root, "parkingSpace")
	p, ok := IDPathOf(ps)
	if !ok {
		t.Fatal("IDPathOf failed")
	}
	want := "/usRegion[@id=\"NE\"]/state[@id=\"PA\"]/county[@id=\"Allegheny\"]/city[@id=\"Pittsburgh\"]/neighborhood[@id=\"Oakland\"]/block[@id=\"1\"]/parkingSpace[@id=\"1\"]"
	if p.String() != want {
		t.Fatalf("IDPath = %s\nwant %s", p, want)
	}
	if got := FindByIDPath(root, p); got != ps {
		t.Fatal("FindByIDPath did not return original node")
	}
	// Non-addressable node (no id on the way).
	av := findFirst(root, "available")
	if _, ok := IDPathOf(av); ok {
		t.Fatal("IDPathOf should fail through non-IDable ancestor")
	}
}

func TestParseIDPathRoundTrip(t *testing.T) {
	root := mustSample(t)
	blk := findFirst(root, "block")
	p, _ := IDPathOf(blk)
	q, err := ParseIDPath(p.String())
	if err != nil {
		t.Fatalf("ParseIDPath: %v", err)
	}
	if !p.Equal(q) {
		t.Fatalf("round trip mismatch: %s vs %s", p, q)
	}
	// Single-quoted form too.
	q2, err := ParseIDPath("/usRegion[@id='NE']/state[@id='PA']")
	if err != nil {
		t.Fatalf("ParseIDPath single quotes: %v", err)
	}
	if q2.String() != `/usRegion[@id="NE"]/state[@id="PA"]` {
		t.Fatalf("single quote parse = %s", q2)
	}
}

func TestParseIDPathErrors(t *testing.T) {
	bad := []string{
		"usRegion",         // not absolute
		"/a[@id=unquoted]", // bad quoting
		"/a[@nid='x']",     // wrong predicate
		"//a",              // empty step
		"/a[@id='x']//b",   // empty step in middle
	}
	for _, s := range bad {
		if _, err := ParseIDPath(s); err == nil {
			t.Errorf("ParseIDPath(%q): expected error", s)
		}
	}
	if p, err := ParseIDPath("/"); err != nil || p != nil {
		t.Errorf("ParseIDPath(/) = %v, %v", p, err)
	}
}

func TestIDPathOps(t *testing.T) {
	p, _ := ParseIDPath("/a[@id='1']/b[@id='2']")
	c := p.Child("c", "3")
	if len(c) != 3 || c[2] != (Step{Name: "c", ID: "3"}) {
		t.Fatalf("Child = %v", c)
	}
	if !p.IsPrefixOf(c) || c.IsPrefixOf(p) {
		t.Fatal("prefix logic wrong")
	}
	if !c.Parent().Equal(p) {
		t.Fatal("Parent != original")
	}
	if p.Parent().Parent() == nil {
		// parent of single step is empty, not nil pointer issues
		t.Log("empty path ok")
	}
	cl := p.Clone()
	cl[0].ID = "zzz"
	if p[0].ID == "zzz" {
		t.Fatal("Clone aliases underlying array")
	}
}

// TestStepKeyFormat pins the key format — it is persisted in WAL records and
// checkpoints — to the %q form it has always had, for ids that need quoting
// and escaping, and checks that appending steps one by one builds exactly
// IDPath.Key().
func TestStepKeyFormat(t *testing.T) {
	ids := []string{"", "1", " sp ace~", `a"b`, `back\slash`, "new\nline", "tab\t", "é/ü]", "[@id='x']", "\x00\x7f", "\u2028"}
	var path IDPath
	var buf []byte
	for i, id := range ids {
		st := Step{Name: fmt.Sprintf("n%d", i), ID: id}
		want := st.Name
		if id != "" {
			want = fmt.Sprintf("%s[@id=%q]", st.Name, id)
		}
		if got := st.String(); got != want {
			t.Fatalf("Step%+v.String() = %s, want %s", st, got, want)
		}
		path = append(path, st)
		buf = st.AppendKey(buf)
		if string(buf) != path.Key() {
			t.Fatalf("appended key %s != IDPath.Key() %s", buf, path.Key())
		}
	}
	if (IDPath{}).String() != "/" {
		t.Fatal("empty path must render as /")
	}
}

func TestEnsureIDPath(t *testing.T) {
	root := NewElem("usRegion", "NE")
	p, _ := ParseIDPath("/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']")
	n, err := EnsureIDPath(root, p)
	if err != nil {
		t.Fatalf("EnsureIDPath: %v", err)
	}
	if n.Name != "county" || n.ID() != "Allegheny" {
		t.Fatalf("wrong node: %s", n)
	}
	// Second call must reuse, not duplicate.
	n2, err := EnsureIDPath(root, p)
	if err != nil || n2 != n {
		t.Fatalf("EnsureIDPath not idempotent: %v %v", n2, err)
	}
	// Mismatched root errors.
	if _, err := EnsureIDPath(root, IDPath{{Name: "other", ID: "x"}}); err == nil {
		t.Fatal("expected root mismatch error")
	}
	if _, err := EnsureIDPath(root, nil); err == nil {
		t.Fatal("expected empty path error")
	}
}

func TestWalkPruning(t *testing.T) {
	root := mustSample(t)
	count := 0
	root.Walk(func(n *Node) bool {
		count++
		return n.Name != "neighborhood" // do not descend into neighborhoods
	})
	// usRegion, state, county, city, neighborhood = 5
	if count != 5 {
		t.Fatalf("pruned walk visited %d nodes, want 5", count)
	}
	if got := root.CountNodes(); got != 12 {
		t.Fatalf("CountNodes = %d, want 12", got)
	}
}

// randomTree builds a random document for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	names := []string{"region", "city", "block", "spot", "meta"}
	n := NewElem(names[r.Intn(len(names))], randID(r))
	if r.Intn(3) == 0 {
		n.SetAttr("v", randID(r))
	}
	if depth > 0 {
		kids := r.Intn(3)
		seen := map[string]bool{}
		for i := 0; i < kids; i++ {
			c := randomTree(r, depth-1)
			key := c.Name + "/" + c.ID()
			if seen[key] {
				continue
			}
			seen[key] = true
			n.AddChild(c)
		}
	} else if r.Intn(2) == 0 {
		n.Text = randID(r)
	}
	return n
}

func randID(r *rand.Rand) string {
	const letters = "abcdefgh"
	b := make([]byte, 1+r.Intn(4))
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func TestPropertySerializeParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		re, err := ParseString(tree.String())
		if err != nil {
			return false
		}
		return Equal(tree, re)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		return Equal(tree, tree.Clone())
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCanonicalStable(t *testing.T) {
	// Shuffling children must not change the canonical form.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := randomTree(r, 4)
		c1 := tree.Canonical()
		shuffleChildren(r, tree)
		return tree.Canonical() == c1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func shuffleChildren(r *rand.Rand, n *Node) {
	r.Shuffle(len(n.Children), func(i, j int) {
		n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
	})
	for _, c := range n.Children {
		shuffleChildren(r, c)
	}
}

func TestIndentedContainsNewlines(t *testing.T) {
	root := mustSample(t)
	if !strings.Contains(root.Indented(), "\n") {
		t.Fatal("Indented output should be multi-line")
	}
	if strings.Contains(root.String(), "\n") {
		t.Fatal("compact output should be single-line")
	}
}
