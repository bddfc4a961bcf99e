// Package irisnet is a from-scratch reproduction of the wide-area sensor
// database system of "Cache-and-Query for Wide Area Sensor Databases"
// (Deshpande, Nath, Gibbons, Seshan — SIGMOD 2003), the query-processing
// core of the IrisNet project.
//
// The system maintains the logical view of a sensor database as a single
// XML document while physically fragmenting it across any number of sites
// (organizing agents). Queries are XPath 1.0 (the unordered fragment); the
// engine provides:
//
//   - Self-starting distributed queries: the lowest-common-ancestor site is
//     computed from the query text alone and resolved through DNS-style
//     names, so a query jumps directly to the right site with no global
//     state.
//   - Query-Evaluate-Gather (QEG): each site detects which part of the
//     answer it stores and emits addressed subqueries for the rest, using
//     the owned/complete/id-complete/incomplete status machinery and the
//     storage invariants I1/I2 of the paper.
//   - Query-driven partial-match caching with the cache conditions C1/C2,
//     sibling subsumption, and per-query freshness tolerances
//     ([@ts >= now() - 30]).
//   - Dynamic ownership migration with DNS re-pointing.
//
// The Deployment type in this package is the embedded, in-process form: it
// wires stores, sites, naming and a simulated network together behind a
// small API. The cmd/ directory contains the distributed (TCP) tooling and
// the benchmark harness that regenerates the paper's experiments.
package irisnet

import (
	"fmt"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
)

// Node is an element in an XML document tree (re-exported from the storage
// engine). Answers are returned as detached Node subtrees.
type Node = xmldb.Node

// IDPath addresses an IDable node by the id attributes on the path from
// the document root (Definition 3.1 of the paper).
type IDPath = xmldb.IDPath

// Schema describes a service's element hierarchy: which tags nest under
// which, and which tags are IDable.
type Schema = xpath.Schema

// ParseIDPath parses "/usRegion[@id='NE']/state[@id='PA']"-style paths.
func ParseIDPath(s string) (IDPath, error) { return xmldb.ParseIDPath(s) }

// ParseXML parses an XML document into a Node tree.
func ParseXML(s string) (*Node, error) { return xmldb.ParseString(s) }

// Config describes an embedded deployment.
type Config struct {
	// ServiceName is the DNS suffix for node names, e.g.
	// "parking.intel-iris.net".
	ServiceName string
	// DocumentXML is the initial logical document. Every node that should
	// be independently placeable must be IDable (unique id among
	// same-named siblings, IDable parent).
	DocumentXML string
	// Schema describes the hierarchy (used by query analysis). If nil it
	// is inferred from the initial document.
	Schema *Schema
	// RootOwner is the site owning everything not assigned elsewhere.
	RootOwner string
	// Ownership assigns subtrees to sites: ID-path string -> site name.
	Ownership map[string]string
	// Caching enables query-driven caching at every site (the paper's
	// aggressive policy).
	Caching bool
	// Latency simulates one-way network delay between sites.
	Latency time.Duration
	// CPUSlotsPerSite models per-site processing parallelism (default 1).
	CPUSlotsPerSite int
	// Clock supplies time in seconds for freshness; nil uses wall time.
	Clock func() float64
}

// Deployment is a running embedded IrisNet: a set of in-process sites, a
// name registry and a query frontend.
type Deployment struct {
	cfg      Config
	net      *transport.SimNet
	registry *naming.Registry
	sites    map[string]*site.Site
	frontend *service.Frontend
	doc      *xmldb.Node
	assign   *fragment.Assignment
}

// New builds and starts an embedded deployment.
func New(cfg Config) (*Deployment, error) {
	if cfg.ServiceName == "" {
		return nil, fmt.Errorf("irisnet: ServiceName is required")
	}
	if cfg.RootOwner == "" {
		return nil, fmt.Errorf("irisnet: RootOwner is required")
	}
	doc, err := xmldb.ParseString(cfg.DocumentXML)
	if err != nil {
		return nil, fmt.Errorf("irisnet: initial document: %w", err)
	}
	schema := cfg.Schema
	if schema == nil {
		schema = InferSchema(doc)
	}
	assign := fragment.NewAssignment(cfg.RootOwner)
	for pathText, siteName := range cfg.Ownership {
		p, err := xmldb.ParseIDPath(pathText)
		if err != nil {
			return nil, fmt.Errorf("irisnet: ownership path %q: %w", pathText, err)
		}
		if xmldb.FindByIDPath(doc, p) == nil {
			return nil, fmt.Errorf("irisnet: ownership path %q not in document", pathText)
		}
		assign.Assign(p, siteName)
	}
	stores, owned, err := fragment.Partition(doc, assign)
	if err != nil {
		return nil, fmt.Errorf("irisnet: partition: %w", err)
	}

	d := &Deployment{
		cfg:      cfg,
		net:      transport.NewSimNet(transport.SimConfig{Latency: cfg.Latency}),
		registry: naming.NewRegistry(),
		sites:    map[string]*site.Site{},
		doc:      doc,
		assign:   assign,
	}
	for _, name := range assign.Sites() {
		s := site.New(site.Config{
			Name:     name,
			Service:  cfg.ServiceName,
			Net:      d.net,
			DNS:      naming.NewClient(d.registry, cfg.ServiceName, time.Hour, nil),
			Registry: d.registry,
			Schema:   schema,
			Caching:  cfg.Caching,
			CPUSlots: cfg.CPUSlotsPerSite,
			Clock:    cfg.Clock,
		}, doc.Name, doc.ID())
		s.Load(stores[name], owned[name])
		if err := s.Start(); err != nil {
			return nil, err
		}
		d.sites[name] = s
	}
	d.registry.RegisterSubtree(doc, cfg.ServiceName, assign.OwnerOf)
	d.frontend = service.NewFrontend(d.net, naming.NewClient(d.registry, cfg.ServiceName, time.Hour, nil))
	if cfg.Clock != nil {
		d.frontend.Clock = cfg.Clock
	}
	return d, nil
}

// Close stops every site.
func (d *Deployment) Close() {
	for _, s := range d.sites {
		s.Stop()
	}
}

// Query runs an XPath query against the logical document, routing it to the
// lowest-common-ancestor site and gathering the distributed answer. The
// returned nodes are detached copies of the selected subtrees.
func (d *Deployment) Query(q string) ([]*Node, error) {
	return d.frontend.Query(q)
}

// QueryXML runs a query and returns each selected subtree as XML text.
func (d *Deployment) QueryXML(q string) ([]string, error) {
	nodes, err := d.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.String()
	}
	return out, nil
}

// RouteOf reports which site a query would start at (diagnostics).
func (d *Deployment) RouteOf(q string) (string, error) {
	siteName, _, err := d.frontend.RouteOf(q)
	return siteName, err
}

// Update applies a sensor update to the node at the ID path: fields become
// child-element text values, attrs become attributes, and the owner stamps
// the data with its clock.
func (d *Deployment) Update(path string, fields, attrs map[string]string) error {
	p, err := xmldb.ParseIDPath(path)
	if err != nil {
		return err
	}
	return d.frontend.Update(p, fields, attrs)
}

// Delegate migrates ownership of the subtree at path to another site,
// atomically from the rest of the system's point of view (Section 4 of the
// paper). The target site must already exist in the deployment.
func (d *Deployment) Delegate(path, newOwner string) error {
	p, err := xmldb.ParseIDPath(path)
	if err != nil {
		return err
	}
	if _, ok := d.sites[newOwner]; !ok {
		return fmt.Errorf("irisnet: unknown site %q", newOwner)
	}
	ownerName, err := d.authoritativeResolver().Resolve(p)
	if err != nil {
		return err
	}
	owner, ok := d.sites[ownerName]
	if !ok {
		return fmt.Errorf("irisnet: resolved owner %q is not a deployment site", ownerName)
	}
	return owner.Delegate(p, newOwner)
}

// SchemaOp names a schema-change operation (see the site package's
// SchemaChange: set-attrs, del-attrs, add-child, del-child, add-idable,
// del-idable).
type SchemaOp = site.SchemaOp

// Schema-change operations (Section 4 of the paper).
const (
	OpSetAttrs  = site.OpSetAttrs
	OpDelAttrs  = site.OpDelAttrs
	OpAddChild  = site.OpAddChild
	OpDelChild  = site.OpDelChild
	OpAddIDable = site.OpAddIDable
	OpDelIDable = site.OpDelIDable
)

// SchemaChange applies a schema-change operation at the owner of the node
// at path: adding/removing attributes or non-IDable fields, or adding/
// deleting IDable nodes (which also maintains their DNS entries).
func (d *Deployment) SchemaChange(op SchemaOp, path string, args map[string]string) error {
	p, err := xmldb.ParseIDPath(path)
	if err != nil {
		return err
	}
	ownerName, err := d.authoritativeResolver().Resolve(p)
	if err != nil {
		return err
	}
	owner, ok := d.sites[ownerName]
	if !ok {
		return fmt.Errorf("irisnet: resolved owner %q is not a deployment site", ownerName)
	}
	return owner.SchemaChange(op, p, args)
}

// Watch is a standing (continuous) query handle; see Frontend.WatchQuery.
type Watch = service.Watch

// Change is one delivered transition of a watched query's answer.
type Change = service.Change

// Watch registers a continuous query, re-evaluated every interval; a
// Change arrives on the handle's channel whenever the answer set changes.
// Continuous queries are the first extension the paper's conclusion calls
// out; combined with caching, repeated evaluations stay cheap.
func (d *Deployment) Watch(query string, interval time.Duration) (*Watch, error) {
	return d.frontend.WatchQuery(query, interval)
}

// Sites returns the deployment's site names.
func (d *Deployment) Sites() []string { return d.assign.Sites() }

// OwnerOf reports which site currently owns the node at path, per the
// authoritative registry (frontend caches may lag briefly after a
// Delegate, exactly as DNS caches do in the paper; stale entries are
// harmless because old owners keep a complete copy and forward updates).
func (d *Deployment) OwnerOf(path string) (string, error) {
	p, err := xmldb.ParseIDPath(path)
	if err != nil {
		return "", err
	}
	return d.authoritativeResolver().Resolve(p)
}

// authoritativeResolver returns an uncached client over the registry.
func (d *Deployment) authoritativeResolver() *naming.Client {
	return naming.NewClient(d.registry, d.cfg.ServiceName, 0, nil)
}

// SiteStats summarizes one site's activity counters.
type SiteStats struct {
	Queries    int64 // queries and subqueries served
	Subqueries int64 // subqueries issued to other sites
	Updates    int64 // sensor updates applied
	CacheHits  int64 // queries answered without asking any other site
}

// Stats returns a site's counters.
func (d *Deployment) Stats(siteName string) (SiteStats, error) {
	s, ok := d.sites[siteName]
	if !ok {
		return SiteStats{}, fmt.Errorf("irisnet: unknown site %q", siteName)
	}
	return SiteStats{
		Queries:    s.Metrics.Queries.Value(),
		Subqueries: s.Metrics.Subqueries.Value(),
		Updates:    s.Metrics.Updates.Value(),
		CacheHits:  s.Metrics.CacheHits.Value(),
	}, nil
}

// InferSchema derives a Schema from a document instance: the observed
// parent-child tag relation and the tags that appear with id attributes.
func InferSchema(doc *Node) *Schema { return xpath.InferSchema(doc) }
