package xmldb

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// parseCases are documents on which Parse and the oracle must agree. They
// seed FuzzParse too. The first group parses; the second is every kind of
// malformed input Parse promises to reject.
var parseCases = []string{
	sampleDoc,
	`<a/>`,
	`<a></a>`,
	`<a b="1" c='2'/>`,
	`<a b = "1"c="2" />`,
	`<a b="1" b="2" c="3" b="4"/>`,
	`<a p:b="1" q:b="2"/>`,
	`<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE a [<!ELEMENT a (b)> <!-- > --> <!ENTITY e "x>y">]><a><b/></a>`,
	`<?xml version='1.0' encoding='utf-8' standalone="yes"?>` + "\n<a/>\n",
	`<a><?pi some data?><!-- a comment -->text</a>`,
	`<!-- before --><a/><!-- after --><?pi?>`,
	`text before <a/> and after`,
	`<![CDATA[outside]]><a/>`,
	`<a> one <b/> two <!-- x --> three <![CDATA[ <four> & ]]> </a>`,
	`<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x10FFFF;&#xD800;&#13;</a>`,
	`<a b="&lt;&gt;&amp;&apos;&quot;&#65;&#x42;' ]]> "/>`,
	"<a b=\"x\r\ny\rz\n\tw\">l1\r\nl2\rl3\r</a>",
	"<a>  nbsp and  nel are white space to TrimSpace  </a>",
	`<ns:a xmlns:ns="urn:x" xmlns="urn:y" ns:b="1" xmlns:="kept" :xmlns="kept"><ns:c/></ns:a>`,
	`<:a :b="1"/>`,
	`<a: b:="1"></a:>`,
	`<_a.b-c1 _x.y-z2="v"/>`,
	`<élan ünï="ça">日本語<子/></élan>`,
	`<a>]]&gt; ]] > ]>]</a>`,
	`<a ` + "\t\r\n" + `b` + "\t\r\n" + `=` + "\t\r\n" + `"1"` + "\t\r\n" + `></a` + "\t\r\n" + `>`,
	`<!x y "a>b" 'c>d' <e <f>> > <a/>`,
	`<!>><a/>`,
	`<!"><a/>">`,
	`<?xmlx version="2.0"?><a/>`,
	`<a><?xml versionx="2" version=2 version="1.0"?></a>`,
	`<a>` + strings.Repeat(`<b>`, 40) + `deep` + strings.Repeat(`</b>`, 40) + `</a>`,

	"",
	" \n ",
	"<a><b></a>",
	"<a/><b/>",
	"<a></a><b>",
	"not xml at all <",
	"<a>",
	"<a><b/>",
	"</a>",
	"<a/></a>",
	"<a></b>",
	"<p:a></q:a>",
	"<p:a></a>",
	"<a:b:c></a:b:c>",
	"<a:b:c/>",
	"<?xml version=\"1.1\" ?x?><a/>",
	"<a b:c:d='1'/>",
	"<a",
	"<a ",
	"<a b",
	"<a b=",
	"<a b=\"",
	"<a b=\"1",
	"<a b=\"1\"",
	"<a/",
	"<a/ >",
	"<a b/>",
	"<a b=1/>",
	"<a b=\"<\"/>",
	"<a =\"1\"/>",
	"< a/>",
	"<1a/>",
	"<-a/>",
	"<a><1/></a>",
	"<a>&nbsp;</a>",
	"<a>&amp</a>",
	"<a>&amp ;</a>",
	"<a>&;</a>",
	"<a>&#;</a>",
	"<a>&#x;</a>",
	"<a>&#X41;</a>",
	"<a>&#0;</a>",
	"<a>&#8;</a>",
	"<a>&#xFFFE;</a>",
	"<a>&#x110000;</a>",
	"<a>&#99999999999999999999999;</a>",
	"<a>&#65</a>",
	"<a>&",
	"<a b='&bogus;'/>",
	"&000<a></a>",
	"<a></a>&",
	"<a/>&amp",
	"<a>]]></a>",
	"]]><a/>",
	"<a>\x00</a>",
	"<a>\x0b</a>",
	"<a b='\x01'/>",
	"<a>\xff</a>",
	"<a>\xc3</a>",
	"<a>\xc3<![CDATA[\xa9]]></a>",
	"<a>\xed\xa0\x80</a>",
	"<a>\xef\xbf\xbe</a>",
	"<a><![CDATA[\xef\xbf\xbf]]></a>",
	"<\xff/>",
	"<a\xc3/>",
	"<a \xef\xbf\xbd='1'/>",
	"<a><![CDATA[x</a>",
	"<a><![CDATA[x]]</a>",
	"<a><![CDAT[x]]></a>",
	"<a><![",
	"<a><!",
	"<a><!-x--></a>",
	"<a><!-",
	"<a><!-- x -- y --></a>",
	"<a><!--x---></a>",
	"<a><!---></a>",
	"<a><!-- x",
	"<a><!-- x --",
	"<!DOCTYPE a <a/>",
	"<!DOCTYPE a [ <!-- --> ] <a/>",
	"<!DOCTYPE a \"> <a/>",
	"<!><a/>",
	"<?><a/>",
	"<? pi?><a/>",
	"<?1?><a/>",
	"<?pi <a/>",
	"<?pi ?",
	"<?xml version=\"1.1\"?><a/>",
	"<?xml version='2'?><a/>",
	"<?xml version=\"1.0\" encoding=\"latin1\"?><a/>",
	"<a><?xml version=\"1.1\"?></a>",
	"<a>" + strings.Repeat("<b>", 40) + strings.Repeat("</b>", 39) + "</a>",
}

// declaresXMLNSAsNamespace reports whether the document binds a prefix to
// the namespace name "xmlns". The oracle reads attribute names after
// encoding/xml has replaced prefixes by namespace names, so it takes every
// attribute with such a prefix for a namespace declaration and drops it;
// Parse goes by what is written (the prefix xmlns, the name xmlns) and keeps
// it. That is the one input on which the two are meant to differ.
func declaresXMLNSAsNamespace(doc string) bool {
	dec := xml.NewDecoder(strings.NewReader(doc))
	for {
		tok, err := dec.RawToken()
		if err != nil {
			return false
		}
		if se, ok := tok.(xml.StartElement); ok {
			for _, a := range se.Attr {
				if a.Name.Space == "xmlns" && a.Value == "xmlns" {
					return true
				}
			}
		}
	}
}

// sameTree compares two trees field by field, attribute order included, and
// checks the parent pointers of got.
func sameTree(got, want *Node, parent *Node) error {
	if got.Name != want.Name || got.Text != want.Text {
		return fmt.Errorf("<%s> text %q, want <%s> text %q", got.Name, got.Text, want.Name, want.Text)
	}
	if got.Parent != parent {
		return fmt.Errorf("<%s>: wrong parent pointer", got.Name)
	}
	if len(got.Attrs) != len(want.Attrs) || len(got.Children) != len(want.Children) {
		return fmt.Errorf("<%s>: %d attrs %d children, want %d and %d", got.Name,
			len(got.Attrs), len(got.Children), len(want.Attrs), len(want.Children))
	}
	for i := range got.Attrs {
		if got.Attrs[i] != want.Attrs[i] {
			return fmt.Errorf("<%s>: attr %d is %v, want %v", got.Name, i, got.Attrs[i], want.Attrs[i])
		}
	}
	for i := range got.Children {
		if err := sameTree(got.Children[i], want.Children[i], got); err != nil {
			return err
		}
	}
	return nil
}

// checkAgainstOracle holds ParseString to the oracle on one document: the
// same decision to accept or reject, and the same tree.
func checkAgainstOracle(t *testing.T, doc string) {
	t.Helper()
	if declaresXMLNSAsNamespace(doc) {
		return
	}
	want, wantErr := oracleParse(strings.NewReader(doc))
	got, err := ParseString(doc)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseString(%q): error %v, oracle error %v", doc, err, wantErr)
	}
	if err != nil {
		return
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("ParseString(%q) = %s, oracle %s", doc, g, w)
	}
	if err := sameTree(got, want, nil); err != nil {
		t.Fatalf("ParseString(%q): %v", doc, err)
	}
}

func TestParseMatchesOracle(t *testing.T) {
	for _, doc := range parseCases {
		checkAgainstOracle(t, doc)
	}
	for _, doc := range corpusDocuments(t) {
		checkAgainstOracle(t, doc)
	}
}

// corpusDocuments returns the documents kept under testdata/documents:
// answers and cache fills recorded from the cluster tests. The bundled
// deployment's database is added from its own directory.
func corpusDocuments(t testing.TB) []string {
	paths, err := filepath.Glob(filepath.Join("testdata", "documents", "*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no recorded documents under testdata/documents (%v)", err)
	}
	deployed, err := filepath.Glob(filepath.Join("..", "..", "deployments", "*", "*.xml"))
	if err != nil || len(deployed) == 0 {
		t.Fatalf("no deployment documents (%v)", err)
	}
	var docs []string
	for _, p := range append(paths, deployed...) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(b))
	}
	return docs
}

// TestParseRejectsAndAccepts pins the decision itself on every case, so
// that an oracle that changed its mind would show.
func TestParseRejectsAndAccepts(t *testing.T) {
	firstBad := 0
	for parseCases[firstBad] != "" {
		firstBad++
	}
	for i, doc := range parseCases {
		_, err := ParseString(doc)
		if i < firstBad && err != nil {
			t.Errorf("ParseString(%q): %v", doc, err)
		}
		if i >= firstBad {
			if err == nil {
				t.Errorf("ParseString(%q): expected an error", doc)
			} else if !strings.HasPrefix(err.Error(), "xmldb: parse: offset ") {
				t.Errorf("ParseString(%q): error %q does not say where", doc, err)
			}
		}
	}
}

func TestParseDialect(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`<ns:a xmlns:ns="urn:x" xmlns="urn:y" ns:b="1" b="2"><ns:c/></ns:a>`, `<a b="2"><c/></a>`},
		{`<a b="1" c="2" b="3"/>`, `<a b="3" c="2"/>`},
		{`<a> one <b/> two <![CDATA[ <3> ]]></a>`, `<a>onetwo&lt;3&gt;<b/></a>`},
		{"<a b='x\r\ny\rz'>l1\r\nl2</a>", "<a b=\"x\ny\nz\">l1\nl2</a>"},
		{`<a b='"'>&#x41;&#66;&amp;</a>`, `<a b="&quot;">AB&amp;</a>`},
		// The one input on which Parse and the oracle differ on purpose.
		{`<a xmlns:p="xmlns" p:b="1"/>`, `<a b="1"/>`},
	}
	for _, c := range cases {
		n, err := ParseString(c.doc)
		if err != nil {
			t.Fatalf("ParseString(%q): %v", c.doc, err)
		}
		if got := n.String(); got != c.want {
			t.Errorf("ParseString(%q) = %s, want %s", c.doc, got, c.want)
		}
	}
	if !declaresXMLNSAsNamespace(`<a xmlns:p="xmln&#115;" p:b="1"/>`) {
		t.Error("declaresXMLNSAsNamespace missed an escaped declaration")
	}
}

// TestNameRunesMatchOracle checks the name tables against encoding/xml for
// every rune of the Basic Multilingual Plane and a sample above it, both as
// the first character of a name and as a later one.
func TestNameRunesMatchOracle(t *testing.T) {
	check := func(r rune) {
		for _, doc := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			_, err := ParseString(doc)
			_, wantErr := oracleParse(strings.NewReader(doc))
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%U in %q: error %v, oracle error %v", r, doc, err, wantErr)
			}
		}
	}
	for r := rune(0); r <= 0xFFFF; r++ {
		if utf8.ValidRune(r) {
			check(r)
		}
	}
	for r := rune(0x10000); r <= 0x10FFFF; r += 0x3FF {
		check(r)
	}
}

// richTree builds a random tree whose names, attribute values and text use
// every character the serializer escapes, and characters above ASCII.
func richTree(r *rand.Rand, depth int) *Node {
	names := []string{"a", "b-c", "_d.e", "élan", "子", "x1"}
	pieces := []string{"<", ">", "&", `"`, "'", "]]>", "&amp;", "plain", " ", "é", "日本", " ", "\U0001F600", "\t", "\n"}
	value := func() string {
		var sb strings.Builder
		for i := r.Intn(4); i > 0; i-- {
			sb.WriteString(pieces[r.Intn(len(pieces))])
		}
		return sb.String()
	}
	n := NewNode(names[r.Intn(len(names))])
	for i := r.Intn(3); i > 0; i-- {
		n.SetAttr(names[r.Intn(len(names))], value())
	}
	// Parse trims text, so only trimmed text survives a round trip.
	n.Text = strings.TrimSpace(value())
	if depth > 0 {
		for i := r.Intn(4); i > 0; i-- {
			n.AddChild(richTree(r, depth-1))
		}
	}
	return n
}

func TestPropertyParseInvertsString(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		tree := richTree(rand.New(rand.NewSource(seed)), 3)
		doc := tree.String()
		re, err := ParseString(doc)
		if err != nil {
			t.Fatalf("seed %d: ParseString(%q): %v", seed, doc, err)
		}
		if err := sameTree(re, tree, nil); err != nil {
			t.Fatalf("seed %d: %q: %v", seed, doc, err)
		}
		checkAgainstOracle(t, doc)
		checkAgainstOracle(t, tree.Indented())
	}
}

// TestParseCopiesItsInput overwrites the bytes a tree was parsed from: a
// node string that aliased them would change (and would pin a whole wire
// message for as long as a site caches the node).
func TestParseCopiesItsInput(t *testing.T) {
	src := []byte(`<usRegion id="NE" note="a &amp; b"><state id="PA"><available>yes</available><available>no &lt; maybe</available></state></usRegion>`)
	want := MustParse(string(src)).String()
	n, err := Parse(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 'X'
	}
	if got := n.String(); got != want {
		t.Fatalf("tree changed with its source: %s", got)
	}
}

// TestParseInternsNames checks that equal names in one parse are one
// string, which is what keeps a parsed fragment's names at a few
// allocations whatever its size.
func TestParseInternsNames(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseString(`<r><n id="1"/><n id="2"/><n id="3"/><n id="4"/><n id="5"/><n id="6"/></r>`); err != nil {
			t.Fatal(err)
		}
	})
	// 7 nodes, 6 attribute slices, 6 values, 1 child slice, 3 names, the
	// name table; a name per element would add 9.
	if allocs > 27 {
		t.Fatalf("%v allocations", allocs)
	}
}

func FuzzParse(f *testing.F) {
	for _, doc := range parseCases {
		f.Add(doc)
	}
	for _, doc := range corpusDocuments(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		checkAgainstOracle(t, doc)
	})
}
