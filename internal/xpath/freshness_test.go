package xpath

import (
	"math"
	"testing"
)

// lastPred parses q and returns the first predicate of its last step.
func lastPred(t *testing.T, q string) Expr {
	t.Helper()
	e, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p, ok := e.(*Path)
	if !ok {
		t.Fatalf("%q is not a path", q)
	}
	last := p.Steps[len(p.Steps)-1]
	if len(last.Preds) == 0 {
		t.Fatalf("%q has no predicate", q)
	}
	return last.Preds[0]
}

func TestCompileFreshnessMargins(t *testing.T) {
	cases := []struct {
		q       string
		ts, now float64
		margin  float64
	}{
		// The paper's canonical freshness predicate: 60s tolerance, data
		// 20s old, 40s of slack left.
		{"/nb[@ts >= now() - 60]", 100, 120, 40},
		// Same constraint written from the age side.
		{"/nb[now() - @ts <= 60]", 100, 120, 40},
		// Strict comparison compiles the same form.
		{"/nb[@ts > now() - 30]", 100, 120, 10},
		// On the edge: zero slack.
		{"/nb[@ts >= now() - 20]", 100, 120, 0},
		// Plain linear arithmetic on both sides.
		{"/nb[@ts + 60 >= now()]", 100, 120, 40},
		// An absolute timestamp floor still has a seconds-of-slack margin.
		{"/nb[@ts >= 100]", 150, 0, 50},
	}
	for _, c := range cases {
		form, ok := CompileFreshness(lastPred(t, c.q))
		if !ok {
			t.Errorf("CompileFreshness(%q): not compiled", c.q)
			continue
		}
		if got := form.Margin(c.ts, c.now); math.Abs(got-c.margin) > 1e-9 {
			t.Errorf("%q: Margin(%v, %v) = %v, want %v", c.q, c.ts, c.now, got, c.margin)
		}
	}
}

func TestCompileFreshnessRejects(t *testing.T) {
	for _, q := range []string{
		"/nb[@ts <= now() - 60]",                      // B < 0: holds *longer* as data ages
		"/nb[price >= 5]",                             // not about @ts at all
		"/nb[@ts = now()]",                            // equality has no margin direction
		"/nb[2 * @ts >= now()]",                       // non-linear in the recognised grammar
		"/nb[@ts >= now() - 30 or @ts >= now() - 60]", // disjunction
	} {
		if form, ok := CompileFreshness(lastPred(t, q)); ok {
			t.Errorf("CompileFreshness(%q): unexpectedly compiled to %+v", q, form)
		}
	}
}
