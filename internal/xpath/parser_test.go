package xpath

import (
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`/usRegion[@id='NE']//block[@id="1"]`)
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	kinds := []TokenKind{TokSlash, TokName, TokLBracket, TokAt, TokName, TokEq,
		TokLiteral, TokRBracket, TokDoubleSlash, TokName, TokLBracket, TokAt,
		TokName, TokEq, TokLiteral, TokRBracket, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("tok[%d] = %v (kind %d), want kind %d", i, toks[i], toks[i].Kind, k)
		}
	}
}

func TestLexStarDisambiguation(t *testing.T) {
	// After a name, * is multiplication; after /, it is a wildcard.
	toks, err := Lex("price * 2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokMultiply {
		t.Fatalf("expected multiply, got %v", toks[1])
	}
	toks, err = Lex("/city/*")
	if err != nil {
		t.Fatal(err)
	}
	if toks[3].Kind != TokStar {
		t.Fatalf("expected wildcard star, got %v", toks[3])
	}
}

func TestLexOperatorNames(t *testing.T) {
	// div after an operand is an operator; at path start it is a name.
	toks, _ := Lex("a div b")
	if toks[1].Kind != TokDiv {
		t.Fatalf("div not lexed as operator: %v", toks[1])
	}
	toks, _ = Lex("div")
	if toks[0].Kind != TokName {
		t.Fatalf("leading div should be a name: %v", toks[0])
	}
	// Uppercase OR from the paper's query syntax.
	toks, _ = Lex("@id='a' OR @id='b'")
	found := false
	for _, tk := range toks {
		if tk.Kind == TokOr {
			found = true
		}
	}
	if !found {
		t.Fatal("uppercase OR not recognized")
	}
}

func TestLexNumbersAndErrors(t *testing.T) {
	toks, err := Lex("3.14 + .5")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokNumber || toks[0].Text != "3.14" {
		t.Fatalf("number lex: %v", toks[0])
	}
	if toks[2].Kind != TokNumber || toks[2].Text != ".5" {
		t.Fatalf(".5 lex: %v", toks[2])
	}
	for _, bad := range []string{"'unterminated", "a ! b", "a # b"} {
		if _, err := Lex(bad); err == nil {
			t.Errorf("Lex(%q): expected error", bad)
		}
	}
}

func TestParsePaperQuery(t *testing.T) {
	// The Figure 2 query, verbatim (with the paper's uppercase OR).
	q := `/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
		`/city[@id='Pittsburgh']/neighborhood[@id='Oakland' OR @id='Shadyside']` +
		`/block[@id='1']/parkingSpace[available='yes']`
	p, err := ParsePath(q)
	if err != nil {
		t.Fatalf("ParsePath: %v", err)
	}
	if !p.Absolute || len(p.Steps) != 7 {
		t.Fatalf("steps = %d, want 7", len(p.Steps))
	}
	nb := p.Steps[4]
	if nb.Test.Name != "neighborhood" || len(nb.Preds) != 1 {
		t.Fatalf("neighborhood step wrong: %v", nb)
	}
	or, ok := nb.Preds[0].(*Binary)
	if !ok || or.Op != TokOr {
		t.Fatalf("neighborhood predicate should be OR: %v", nb.Preds[0])
	}
}

func TestParseMinPriceQuery(t *testing.T) {
	// The Section 3.5 nesting-depth example.
	q := `/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']` +
		`/city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']` +
		`/parkingSpace[not(price > ../parkingSpace/price)]`
	p, err := ParsePath(q)
	if err != nil {
		t.Fatalf("ParsePath: %v", err)
	}
	last := p.Steps[len(p.Steps)-1]
	call, ok := last.Preds[0].(*Call)
	if !ok || call.Name != "not" {
		t.Fatalf("predicate should be not(...): %v", last.Preds[0])
	}
	cmp, ok := call.Args[0].(*Binary)
	if !ok || cmp.Op != TokGt {
		t.Fatalf("inner comparison: %v", call.Args[0])
	}
	rel, ok := cmp.R.(*Path)
	if !ok || rel.Absolute {
		t.Fatalf("right operand should be relative path: %v", cmp.R)
	}
	if rel.Steps[0].Axis != AxisParent {
		t.Fatalf("first step should be parent axis: %v", rel.Steps[0])
	}
}

func TestParseDoubleSlash(t *testing.T) {
	p, err := ParsePath("//parkingSpace[available='yes']")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 || p.Steps[0].Axis != AxisDescendantOrSelf {
		t.Fatalf("// expansion wrong: %v", p.Steps)
	}
	p2, err := ParsePath("/city[@id='x']//block")
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Steps) != 3 {
		t.Fatalf("embedded //: %d steps", len(p2.Steps))
	}
}

func TestParseExplicitAxes(t *testing.T) {
	p, err := ParsePath("/a/descendant::b/ancestor::c")
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps[1].Axis != AxisDescendant || p.Steps[2].Axis != AxisAncestor {
		t.Fatalf("axes: %v %v", p.Steps[1].Axis, p.Steps[2].Axis)
	}
	if _, err := ParsePath("/a/following-sibling::b"); err == nil {
		t.Fatal("ordering-dependent axis should be rejected")
	}
}

func TestParseFunctionsAndArithmetic(t *testing.T) {
	e, err := Parse("count(/a/b) > 2 + 3 * 4")
	if err != nil {
		t.Fatal(err)
	}
	cmp := e.(*Binary)
	if cmp.Op != TokGt {
		t.Fatalf("top op: %v", cmp.Op)
	}
	if _, ok := cmp.L.(*Call); !ok {
		t.Fatalf("left should be call: %T", cmp.L)
	}
	add := cmp.R.(*Binary)
	if add.Op != TokPlus {
		t.Fatalf("precedence broken: %v", add.Op)
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := Parse("1 = 2 or 3 = 3 and 4 = 4")
	if err != nil {
		t.Fatal(err)
	}
	or := e.(*Binary)
	if or.Op != TokOr {
		t.Fatalf("or should bind loosest: %v", or.Op)
	}
	and := or.R.(*Binary)
	if and.Op != TokAnd {
		t.Fatalf("and should bind tighter than or: %v", and.Op)
	}
}

func TestParseUnionAndUnary(t *testing.T) {
	e, err := Parse("/a/b | /a/c")
	if err != nil {
		t.Fatal(err)
	}
	u := e.(*Binary)
	if u.Op != TokPipe {
		t.Fatalf("union: %v", u.Op)
	}
	e2, err := Parse("-price > -5")
	if err != nil {
		t.Fatal(err)
	}
	cmp := e2.(*Binary)
	if _, ok := cmp.L.(*Unary); !ok {
		t.Fatalf("unary minus: %T", cmp.L)
	}
}

func TestParseNodeTests(t *testing.T) {
	p, err := ParsePath("/a/text()")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Steps[1].Test.Text {
		t.Fatal("text() test not parsed")
	}
	p2, err := ParsePath("/a/node()")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Steps[1].Test.AnyNode {
		t.Fatal("node() test not parsed")
	}
	p3, err := ParsePath("/a/@*")
	if err != nil {
		t.Fatal(err)
	}
	if p3.Steps[1].Axis != AxisAttribute || p3.Steps[1].Test.Name != "*" {
		t.Fatal("@* not parsed")
	}
}

func TestParseDotSteps(t *testing.T) {
	p, err := ParsePath("./block/..")
	if err != nil {
		t.Fatal(err)
	}
	if p.Absolute {
		t.Fatal("should be relative")
	}
	if p.Steps[0].Axis != AxisSelf || p.Steps[2].Axis != AxisParent {
		t.Fatalf("dot steps: %v", p.Steps)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"/a[",
		"/a[@id=']",
		"/a]",
		"count(",
		"count(a,)",
		"/a/位::b",
		"1 +",
		"(1 + 2",
		"/a/b[]",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		}
	}
}

func TestParseNotAPath(t *testing.T) {
	if _, err := ParsePath("1 + 2"); err == nil {
		t.Fatal("ParsePath should reject non-path")
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		`/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']/neighborhood[@id='Oakland' or @id='Shadyside']/block[@id='1']/parkingSpace[available='yes']`,
		`//parkingSpace[available='yes'][price='0']`,
		`/a/b[count(./c) = 5]/d`,
		`/a[@x > 3 + 4 * 2]/b`,
		`/city[./neighborhood[@id='Oakland']]/neighborhood`,
		`/a/b | /a/c[@v != 'x']`,
		`/block[@id='1']/parkingSpace[not(price > ../parkingSpace/price)]`,
		`/a[contains(@name, 'x') and starts-with(@name, 'y')]`,
	}
	for _, q := range queries {
		e1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		printed := e1.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", q, printed, err)
		}
		if e2.String() != printed {
			t.Errorf("print not stable:\n  1: %s\n  2: %s", printed, e2.String())
		}
	}
}

func TestMustParsePathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParsePath should panic on bad input")
		}
	}()
	MustParsePath("][")
}
