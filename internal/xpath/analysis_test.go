package xpath

import (
	"reflect"
	"sort"
	"testing"
)

// parkingSchema mirrors the paper's Parking Space Finder hierarchy.
func parkingSchema() *Schema {
	return &Schema{
		Children: map[string][]string{
			"usRegion":     {"state"},
			"state":        {"county"},
			"county":       {"city"},
			"city":         {"neighborhood"},
			"neighborhood": {"block", "available-spaces"},
			"block":        {"parkingSpace"},
			"parkingSpace": {"available", "price", "GPS", "in-use"},
		},
		IDable: map[string]bool{
			"usRegion": true, "state": true, "county": true, "city": true,
			"neighborhood": true, "block": true, "parkingSpace": true,
		},
	}
}

func TestIDPrefixFigure2(t *testing.T) {
	q := `/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
		`/city[@id='Pittsburgh']/neighborhood[@id='Oakland' OR @id='Shadyside']` +
		`/block[@id='1']/parkingSpace[available='yes']`
	p := MustParsePath(q)
	prefix, k := IDPrefix(p)
	if k != 4 {
		t.Fatalf("prefix length = %d, want 4 (LCA is Pittsburgh)", k)
	}
	want := `/usRegion[@id="NE"]/state[@id="PA"]/county[@id="Allegheny"]/city[@id="Pittsburgh"]`
	if prefix.String() != want {
		t.Fatalf("prefix = %s, want %s", prefix, want)
	}
}

func TestIDPrefixFullPath(t *testing.T) {
	q := `/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
		`/city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']`
	p := MustParsePath(q)
	prefix, k := IDPrefix(p)
	if k != 6 || len(prefix) != 6 {
		t.Fatalf("prefix = %s (k=%d), want all 6 steps", prefix, k)
	}
}

func TestIDPrefixStopsAtExtraPredicates(t *testing.T) {
	// A step with a non-id predicate ends the prefix at that step.
	q := `/usRegion[@id='NE']/state[@id='PA']/city[@id='P'][@pop > 5]/block`
	p := MustParsePath(q)
	_, k := IDPrefix(p)
	if k != 2 {
		t.Fatalf("prefix length = %d, want 2", k)
	}
	// Reversed operand order still qualifies.
	q2 := `/usRegion['NE'=@id]/state`
	p2 := MustParsePath(q2)
	_, k2 := IDPrefix(p2)
	if k2 != 1 {
		t.Fatalf("reversed equality: prefix length = %d, want 1", k2)
	}
}

func TestIDPrefixRelativeAndWildcard(t *testing.T) {
	p := MustParsePath("a[@id='x']/b")
	if _, k := IDPrefix(p); k != 0 {
		t.Fatalf("relative path should have empty prefix, got %d", k)
	}
	p2 := MustParsePath("/*[@id='x']/b")
	if _, k := IDPrefix(p2); k != 0 {
		t.Fatalf("wildcard step should not qualify, got %d", k)
	}
	p3 := MustParsePath("//block[@id='1']")
	if _, k := IDPrefix(p3); k != 0 {
		t.Fatalf("descendant step should not qualify, got %d", k)
	}
}

func TestNestingDepthPaperExamples(t *testing.T) {
	s := &Schema{
		Children: map[string][]string{"a": {"b"}, "b": {"c"}},
		IDable:   map[string]bool{"a": true, "b": true},
	}
	noIDable := &Schema{
		Children: map[string][]string{"a": {"b"}, "b": {"c"}},
		IDable:   map[string]bool{"a": true},
	}
	cases := []struct {
		q      string
		schema *Schema
		want   int
	}{
		{"/a[@id='x']/b[@id='y']/c", s, 0},
		{"/a[@id='x']//c", s, 0},
		{"/a[./b/c]/b", s, 1},        // b IDable
		{"/a[./b/c]/b", noIDable, 0}, // b not IDable
		{"/a[count(./b/c) = 5]/b", s, 1},
		// c is not IDable in schema s, but b is: depth 1 per Definition 3.3.
		{"/a[count(./b[./c[@id='1']]) = 1]/b", s, 1},
	}
	for _, c := range cases {
		e, err := Parse(c.q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.q, err)
		}
		if got := NestingDepth(e, c.schema); got != c.want {
			t.Errorf("NestingDepth(%q) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestNestingDepthCIDable(t *testing.T) {
	s := &Schema{
		Children: map[string][]string{"a": {"b"}, "b": {"c"}},
		IDable:   map[string]bool{"a": true, "b": true, "c": true},
	}
	e, _ := Parse("/a[count(./b[./c[@id='1']]) = 1]/b")
	if got := NestingDepth(e, s); got != 2 {
		t.Errorf("depth with c IDable = %d, want 2", got)
	}
}

func TestNestingDepthMinPriceQuery(t *testing.T) {
	s := parkingSchema()
	e, _ := Parse(`/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
		`/city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']` +
		`/parkingSpace[not(price > ../parkingSpace/price)]`)
	if got := NestingDepth(e, s); got != 1 {
		t.Errorf("min-price query depth = %d, want 1 (upward reference)", got)
	}
	// Plain id predicates are depth 0.
	e2, _ := Parse(`/usRegion[@id='NE']/state[@id='PA']`)
	if got := NestingDepth(e2, s); got != 0 {
		t.Errorf("id-only query depth = %d, want 0", got)
	}
	// Predicates on non-IDable children (available) are depth 0.
	e3, _ := Parse(`//parkingSpace[available='yes']`)
	if got := NestingDepth(e3, s); got != 0 {
		t.Errorf("available predicate depth = %d, want 0", got)
	}
}

func TestEarliestNestedTag(t *testing.T) {
	s := parkingSchema()
	p := MustParsePath(`/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
		`/city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']` +
		`/parkingSpace[not(price > ../parkingSpace/price)]`)
	tag, idx, ok := EarliestNestedTag(p, s)
	if !ok || tag != "parkingSpace" || idx != 6 {
		t.Fatalf("EarliestNestedTag = %q,%d,%v; want parkingSpace,6,true", tag, idx, ok)
	}
	p2 := MustParsePath(`/usRegion[@id='NE']/state[@id='PA']`)
	if _, _, ok := EarliestNestedTag(p2, s); ok {
		t.Fatal("depth-0 query should report no nested tag")
	}
	// The "frivolous" query from Section 4: predicate on city.
	p3 := MustParsePath(`/usRegion[@id='NE']/state[@id='PA']/county[@id='A']` +
		`/city[./neighborhood[@id='Oakland']]/neighborhood/block`)
	tag3, idx3, ok3 := EarliestNestedTag(p3, s)
	if !ok3 || tag3 != "city" || idx3 != 3 {
		t.Fatalf("EarliestNestedTag = %q,%d,%v; want city,3,true", tag3, idx3, ok3)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestSplitPredicateClasses(t *testing.T) {
	cases := []struct {
		expr string
		want PredicateClass
	}{
		{`@id = 'Oakland'`, PredID},
		{`@id = 'Oakland' or @id = 'Shadyside'`, PredID},
		{`@ts >= now() - 30`, PredConsistency},
		{`available = 'yes'`, PredRest},
		{`price > 0`, PredRest},
		{`@id = 'x' or price > 5`, PredOpaque},
		{`@ts > 5 or available = 'yes'`, PredOpaque},
		{`3 > 2`, PredID}, // constant-only: evaluable anywhere
	}
	for _, c := range cases {
		e, err := Parse(c.expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.expr, err)
		}
		if got := ClassifyPredicate(e); got != c.want {
			t.Errorf("ClassifyPredicate(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestSplitPredicateConjunction(t *testing.T) {
	e, err := Parse(`@id='x' and available='yes' and @ts >= now() - 60`)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitPredicate(e)
	if len(split[PredID]) != 1 || len(split[PredRest]) != 1 || len(split[PredConsistency]) != 1 {
		t.Fatalf("split = %v", split)
	}
	if len(Conjuncts(e)) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(Conjuncts(e)))
	}
}

func TestStepIDConstraint(t *testing.T) {
	admits := func(c IDConstraint, ids ...string) []bool {
		out := make([]bool, len(ids))
		for i, id := range ids {
			out[i] = c.Admits(id, nil)
		}
		return out
	}
	p := MustParsePath(`/n[@id='Oakland' or @id='Shadyside']`)
	if got := admits(StepIDConstraint(p.Steps[0]), "Oakland", "Shadyside", "Etna"); !reflect.DeepEqual(got, []bool{true, true, false}) {
		t.Fatalf("disjunction admits %v", got)
	}
	// Unconstrained step.
	p2 := MustParsePath(`/n[available='yes']`)
	if got := StepIDConstraint(p2.Steps[0]); got != nil {
		t.Fatalf("unconstrained step returned %v", got)
	}
	// Conjunction of two id constraints intersects.
	p3 := MustParsePath(`/n[@id='a' and (@id='a' or @id='b')]`)
	if got := admits(StepIDConstraint(p3.Steps[0]), "a", "b"); !reflect.DeepEqual(got, []bool{true, false}) {
		t.Fatalf("intersection admits %v", got)
	}
	// Contradictory constraints admit nothing, and are not "unconstrained".
	p4 := MustParsePath(`/n[@id='a' and @id='b']`)
	c4 := StepIDConstraint(p4.Steps[0])
	if got := admits(c4, "a", "b"); c4 == nil || !reflect.DeepEqual(got, []bool{false, false}) {
		t.Fatalf("contradiction admits %v", got)
	}
	// A template's slot literals read the binding.
	e, err := ParseTemplate(`/n[@id='x' or @id='y']`)
	if err != nil {
		t.Fatal(err)
	}
	c5 := StepIDConstraint(e.(*Path).Steps[0])
	if got := c5.Admits("b", []string{"a", "b"}); !got || c5.Admits("x", []string{"a", "b"}) {
		t.Fatalf("bound constraint admits b=%v x=%v", got, c5.Admits("x", []string{"a", "b"}))
	}
}

func TestSchemaDescendantTags(t *testing.T) {
	s := parkingSchema()
	d := s.DescendantTags("neighborhood")
	for _, tag := range []string{"block", "parkingSpace", "available"} {
		if !d[tag] {
			t.Errorf("descendants of neighborhood missing %q", tag)
		}
	}
	if d["city"] || d["neighborhood"] {
		t.Errorf("descendants should exclude self and ancestors: %v", keys(d))
	}
}

func TestStripConsistency(t *testing.T) {
	// want is each query's stripped String() as the clone-and-refold
	// implementation printed it: a predicate that changes re-folds its kept
	// conjuncts left to right.
	for _, tc := range []struct{ q, want string }{
		{"/a[@id='1']/b[@ts > now() - 30]/c[x='1']", `/a[(@id = "1")]/b/c[(x = "1")]`},
		{"/a/b[@ts >= now() - 5 and available='yes']", `/a/b[(available = "yes")]`},
		{"/a/b[c[@ts > now() - 2] and @id='x']/d", `/a/b[(c and (@id = "x"))]/d`},
		{"/a/b[@id='1' or @id='2'][@ts > now() - 1]", `/a/b[((@id = "1") or (@id = "2"))]`},
		{"/a/b[count(c[@ts > now() - 2]) > 0]", `/a/b[(count(c) > 0)]`},
		{"/a/b[@ts > now() - 1] | /a/c[@ts > now() - 2 and x='y']", `(/a/b | /a/c[(x = "y")])`},
		{"/a/b[x='1' and (y='2' and @ts > now() - 3)]", `/a/b[((x = "1") and (y = "2"))]`},
		{"/a[@id='1']/b[(p='1' and q='2') and r='3']/c[@ts > now() - 4]", `/a[(@id = "1")]/b[(((p = "1") and (q = "2")) and (r = "3"))]/c`},
	} {
		e, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		before := e.String()
		got := StripConsistency(e)
		if got.String() != tc.want {
			t.Errorf("%s: stripped to %s, want %s", tc.q, got, tc.want)
		}
		if got == e {
			t.Errorf("%s: nothing stripped", tc.q)
		}
		if e.String() != before {
			t.Errorf("%s: input mutated to %s", tc.q, e)
		}
	}

	// A query without consistency conjuncts comes back as the same pointer.
	for _, q := range []string{
		"/usRegion[@id='NE']/state[@id='PA']/block[@id='1']/parkingSpace[available='yes']",
		"/a/b[x='1' and (y='2' and z='3')] | //c[count(d[e > 2]) > 0]",
	} {
		e, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := StripConsistency(e); got != e {
			t.Errorf("%s: copied to %s though nothing is stripped", q, got)
		}
	}
}
