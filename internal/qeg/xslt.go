package qeg

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"irisnet/internal/metrics"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// This file reproduces the paper's two plan-creation paths (Section 4,
// "Speeding up XSLT processing", measured in Figure 11):
//
//   - Naive: generate the full XSLT program text for the query, parse the
//     stylesheet back, re-parse every embedded XPath expression, and build
//     the executable plan from the parsed stylesheet. This is what "create
//     and compile the XSLT program through traditional interfaces" costs.
//
//   - Fast: a template program is compiled once and only the
//     query-dependent parts are patched in per query. In this
//     implementation the Compiler compiles one template per query shape
//     (the text with its id values cut out, xpath.Shape) and binds each
//     query's id values into it; a query of a known shape is scanned, not
//     parsed.
//
// The generated stylesheet is a faithful rendering of the QEG algorithm:
// one template per location step performing the four-way status dispatch.

// GenerateXSLT renders the QEG program for a query as an XSLT stylesheet.
func GenerateXSLT(path *xpath.Path) string {
	var sb strings.Builder
	sb.WriteString(`<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">` + "\n")
	sb.WriteString(`<xsl:output method="xml"/>` + "\n")
	sb.WriteString(`<xsl:template match="/"><xsl:call-template name="step0"/></xsl:template>` + "\n")
	for i, s := range path.Steps {
		writeStepTemplate(&sb, i, s, i == len(path.Steps)-1)
	}
	sb.WriteString(`<xsl:template name="copy-local-info">` + "\n")
	sb.WriteString(`  <xsl:copy><xsl:copy-of select="@*"/><xsl:copy-of select="*[not(@id)]"/>` + "\n")
	sb.WriteString(`  <xsl:for-each select="*[@id]"><xsl:copy><xsl:copy-of select="@id"/></xsl:copy></xsl:for-each>` + "\n")
	sb.WriteString(`  </xsl:copy>` + "\n")
	sb.WriteString(`</xsl:template>` + "\n")
	sb.WriteString(`</xsl:stylesheet>` + "\n")
	return sb.String()
}

func writeStepTemplate(sb *strings.Builder, i int, s *xpath.LocStep, last bool) {
	axis := s.Axis.String()
	test := s.Test.String()
	fmt.Fprintf(sb, `<xsl:template name="step%d" match="%s" iris:axis="%s" xmlns:iris="urn:irisnet">`+"\n",
		i, xmlEscape(test), axis)
	pred := "true()"
	if len(s.Preds) > 0 {
		parts := make([]string, len(s.Preds))
		for j, p := range s.Preds {
			parts[j] = "(" + p.String() + ")"
		}
		pred = strings.Join(parts, " and ")
	}
	fmt.Fprintf(sb, `  <xsl:if test="%s">`+"\n", xmlEscape(pred))
	sb.WriteString("    <xsl:choose>\n")
	sb.WriteString(`      <xsl:when test="@status='owned' or @status='complete'">` + "\n")
	sb.WriteString(`        <xsl:call-template name="copy-local-info"/>` + "\n")
	if !last {
		fmt.Fprintf(sb, `        <xsl:apply-templates select="*"><xsl:with-param name="step" select="%d"/></xsl:apply-templates>`+"\n", i+1)
	} else {
		sb.WriteString(`        <xsl:copy-of select="."/>` + "\n")
	}
	sb.WriteString("      </xsl:when>\n")
	sb.WriteString(`      <xsl:when test="@status='id-complete'">` + "\n")
	if !last {
		fmt.Fprintf(sb, `        <xsl:apply-templates select="*[@id]"><xsl:with-param name="step" select="%d"/></xsl:apply-templates>`+"\n", i+1)
	}
	sb.WriteString(`        <asksubquery reason="local-info-required"/>` + "\n")
	sb.WriteString("      </xsl:when>\n")
	sb.WriteString("      <xsl:otherwise>\n")
	sb.WriteString(`        <asksubquery reason="incomplete"/>` + "\n")
	sb.WriteString("      </xsl:otherwise>\n")
	sb.WriteString("    </xsl:choose>\n")
	sb.WriteString("  </xsl:if>\n")
	sb.WriteString("</xsl:template>\n")
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// NaiveCompile builds a Plan by generating the XSLT program text for the
// query, parsing the stylesheet back, and recompiling every embedded XPath
// expression — the paper's unoptimized plan-creation path.
func NaiveCompile(query string, schema *xpath.Schema) (*Plan, error) {
	path, err := xpath.ParsePath(query)
	if err != nil {
		return nil, err
	}
	text := GenerateXSLT(path)
	doc, err := xmldb.ParseString(text)
	if err != nil {
		return nil, fmt.Errorf("qeg: naive compile: reparsing stylesheet: %w", err)
	}
	rebuilt, err := planFromStylesheet(doc, path.Absolute)
	if err != nil {
		return nil, err
	}
	t, err := compileParsed(query, rebuilt, schema)
	if err != nil {
		return nil, err
	}
	return &Plan{template: t}, nil
}

// planFromStylesheet reconstructs the location path from the parsed
// stylesheet: one step per step template, re-parsing the embedded
// predicates (the expensive part the paper measures).
func planFromStylesheet(doc *xmldb.Node, absolute bool) (*xpath.Path, error) {
	type stepTpl struct {
		idx  int
		node *xmldb.Node
	}
	var tpls []stepTpl
	for _, c := range doc.Children {
		if c.Name != "template" {
			continue
		}
		name, _ := c.Attr("name")
		var idx int
		if _, err := fmt.Sscanf(name, "step%d", &idx); err != nil {
			continue
		}
		tpls = append(tpls, stepTpl{idx: idx, node: c})
	}
	steps := make([]*xpath.LocStep, len(tpls))
	for _, t := range tpls {
		if t.idx < 0 || t.idx >= len(steps) {
			return nil, fmt.Errorf("qeg: naive compile: template index %d out of range", t.idx)
		}
		match, _ := t.node.Attr("match")
		axisName, _ := t.node.Attr("axis")
		ifNode := t.node.ChildNamed("if")
		if ifNode == nil {
			return nil, fmt.Errorf("qeg: naive compile: step %d has no predicate guard", t.idx)
		}
		predText, _ := ifNode.Attr("test")
		step, err := reconstructStep(match, axisName, predText)
		if err != nil {
			return nil, fmt.Errorf("qeg: naive compile: step %d: %w", t.idx, err)
		}
		steps[t.idx] = step
	}
	for i, s := range steps {
		if s == nil {
			return nil, fmt.Errorf("qeg: naive compile: missing template for step %d", i)
		}
	}
	return &xpath.Path{Absolute: absolute, Steps: steps}, nil
}

func reconstructStep(match, axisName, predText string) (*xpath.LocStep, error) {
	var probe string
	switch axisName {
	case "child", "":
		probe = match
	case "attribute":
		probe = "@" + strings.TrimPrefix(match, "@")
	default:
		probe = axisName + "::" + strings.TrimPrefix(match, "@")
	}
	probePath, err := xpath.ParsePath(probe)
	if err != nil || len(probePath.Steps) != 1 {
		return nil, fmt.Errorf("bad node test %q (axis %q): %v", match, axisName, err)
	}
	step := probePath.Steps[0]
	if predText != "" && predText != "true()" {
		pred, err := xpath.Parse(predText)
		if err != nil {
			return nil, fmt.Errorf("recompiling predicate %q: %w", predText, err)
		}
		step.Preds = []xpath.Expr{pred}
	}
	return step, nil
}

// DefaultPlanCacheCap bounds the number of query shapes whose templates a
// Compiler retains. Sized well above a site's realistic working set of
// shapes; ad-hoc workloads past the cap recompile cold entries instead of
// growing the cache without bound.
const DefaultPlanCacheCap = 1024

// planEntry is one cached compilation result — the unbound template plans
// of one shape — plus its clock reference bit.
type planEntry struct {
	plans []*Plan
	ref   atomic.Bool // set on hit; cleared (second chance) by the sweeper
}

// planCache bounds the per-query plan cache with a clock (second-chance)
// policy over a sync.Map, keeping the hit path lock-free: a hit is one
// sync.Map load plus one atomic bit set. Inserts past the cap trigger a
// sweep, serialized on mu, that gives recently referenced entries a second
// chance and deletes the rest until the cache is back at the cap. Sizes
// are approximate under concurrency (an insert racing a sweep can leave
// the cache one entry over for a moment), which is fine for a bound whose
// only job is to stop unbounded growth.
type planCache struct {
	cap  int
	m    sync.Map // query shape -> *planEntry
	size atomic.Int64
	mu   sync.Mutex // serializes sweeps
}

func (c *planCache) get(query string) ([]*Plan, bool) {
	v, ok := c.m.Load(query)
	if !ok {
		return nil, false
	}
	e := v.(*planEntry)
	// Every query of a shape hits one entry, from every CPU slot: store the
	// bit only when a sweep has cleared it, so hits share the entry's cache
	// line instead of bouncing it between cores.
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e.plans, true
}

func (c *planCache) put(query string, plans []*Plan) {
	e := &planEntry{plans: plans}
	e.ref.Store(true) // grace period: a brand-new entry survives one sweep
	if _, loaded := c.m.LoadOrStore(query, e); loaded {
		return // concurrent compile of the same query; either copy wins
	}
	if c.size.Add(1) > int64(c.cap) {
		c.sweep()
	}
}

func (c *planCache) sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Two passes bound the scan: the first clears reference bits (and
	// already deletes anything cold), the second can then evict entries
	// that were referenced before but not since.
	for pass := 0; pass < 2 && c.size.Load() > int64(c.cap); pass++ {
		c.m.Range(func(k, v any) bool {
			if c.size.Load() <= int64(c.cap) {
				return false
			}
			if v.(*planEntry).ref.CompareAndSwap(true, false) {
				return true // second chance
			}
			c.m.Delete(k)
			c.size.Add(-1)
			return true
		})
	}
}

func (c *planCache) len() int { return int(c.size.Load()) }

// Compiler caches compiled plans per query shape and implements the paper's
// fast path; construct one per organizing agent with NewCompiler.
//
// The cache holds one template per shape (xpath.Shape: the query text with
// its id values cut out), and Compile patches each query's id values into
// it, as the paper's sites patch the query-dependent parts of a
// pre-compiled XSLT program. A hit scans the text once and allocates only
// the bound plan handles; only a new shape parses and compiles.
//
// Compile is safe for concurrent use: sites with more than one CPU slot
// compile on whichever slot the query landed on, so the plan cache is a
// clock-swept sync.Map (lock-free reads once a shape is cached; duplicate
// compilation of a brand-new shape is possible and harmless — templates
// are immutable and either copy wins). The cache is bounded by
// DefaultPlanCacheCap so ad-hoc query workloads cannot grow it forever.
type Compiler struct {
	schema *xpath.Schema
	naive  bool
	cache  *planCache
	// Misses counts compilations: queries whose shape was not cached (every
	// query in naive mode).
	Misses metrics.Counter
}

// NewCompiler builds a compiler for a service schema. naive selects the
// unoptimized per-query XSLT generation path; plan caching is disabled in
// that mode so every query pays the full creation cost, matching the
// Figure 11 methodology.
func NewCompiler(schema *xpath.Schema, naive bool) *Compiler {
	c := &Compiler{schema: schema, naive: naive}
	if !naive {
		c.cache = &planCache{cap: DefaultPlanCacheCap}
	}
	return c
}

// Shapes reports the number of query shapes currently cached (tests and
// observability; approximate while sweeps race inserts).
func (c *Compiler) Shapes() int {
	if c.cache == nil {
		return 0
	}
	return c.cache.len()
}

// Compile produces the plans (one per union branch) for a query.
func (c *Compiler) Compile(query string) ([]*Plan, error) {
	if c.naive {
		c.Misses.Inc()
		expr, err := xpath.Parse(query)
		if err != nil {
			return nil, err
		}
		paths, err := unionBranches(expr)
		if err != nil {
			return nil, fmt.Errorf("qeg: %q: %w", query, err)
		}
		var plans []*Plan
		for _, p := range paths {
			plan, err := NaiveCompile(p.String(), c.schema)
			if err != nil {
				return nil, err
			}
			plans = append(plans, plan)
		}
		return plans, nil
	}
	shape, ids := xpath.Shape(query)
	plans, ok := c.cache.get(shape)
	if !ok {
		c.Misses.Inc()
		expr, err := xpath.ParseTemplate(query)
		if err != nil {
			return nil, err
		}
		if plans, err = compileBranches(query, expr, c.schema); err != nil {
			return nil, err
		}
		c.cache.put(shape, plans)
	}
	return bind(plans, ids), nil
}
