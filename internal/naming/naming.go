// Package naming implements the paper's DNS-based site location (Section
// 3.4): every IDable node has a DNS-style name built from its root-to-node
// ID path; a registry (standing in for the DNS hierarchy) maps names to
// sites; clients cache lookups with a TTL, and entries are repointed when
// ownership migrates.
//
// A key property carried over from the paper: names are constructed purely
// from the query (or from the site's own fragment), never from global
// state.
package naming

import (
	"fmt"
	"strings"
	"sync"
	"time"
	"unicode"

	"irisnet/internal/xmldb"
)

// DNSName builds the DNS-style name of the IDable node at the given ID
// path for a service, e.g.
//
//	pittsburgh.allegheny.pa.ne.parking.intel-iris.net
//
// IDs are lowercased and sanitized; the root element name is dropped (the
// service suffix plays its role, exactly as in the paper where the
// usRegion root maps to "parking.intel-iris.net").
func DNSName(p xmldb.IDPath, service string) string {
	var b strings.Builder
	appendName(&b, p, service, nil)
	return b.String()
}

// appendName writes the DNS name of p to b. When starts is non-nil it also
// records, for every k in [0, len(p)), the byte offset at which the name
// of the prefix p[:len(p)-k] begins — because labels run most-specific
// first, each shorter prefix's name is a suffix of the full name, so the
// whole longest-prefix walk needs exactly one name construction.
func appendName(b *strings.Builder, p xmldb.IDPath, service string, starts []int) []int {
	for i := len(p) - 1; i >= 1; i-- {
		if starts != nil {
			starts = append(starts, b.Len())
		}
		writeLabel(b, p[i].Name, p[i].ID)
		b.WriteByte('.')
	}
	if starts != nil && len(p) > 0 {
		starts = append(starts, b.Len())
	}
	if len(p) > 0 && p[0].ID != "" {
		writeLabel(b, p[0].Name, p[0].ID)
		b.WriteByte('.')
	}
	b.WriteString(service)
	return starts
}

// writeLabel appends the DNS label for an ID to b. IDs that are
// meaningful names (Pittsburgh) map directly — lowercased, with anything
// outside [a-z0-9-] replaced by '-'; short numeric ids (block 1) are
// disambiguated with their element name so sibling levels cannot collide
// (block 1 vs parkingSpace 1). An empty ID becomes "x". Sanitization runs
// rune-by-rune straight into the builder so the resolve hot path never
// materializes intermediate label strings.
func writeLabel(b *strings.Builder, name, id string) {
	first := true
	for _, r := range id {
		r = unicode.ToLower(r)
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-') {
			r = '-'
		}
		if first {
			first = false
			if r >= '0' && r <= '9' {
				b.WriteString(strings.ToLower(name))
				b.WriteByte('-')
			}
		}
		b.WriteRune(r)
	}
	if first {
		b.WriteByte('x')
	}
}

// Store is the authoritative name mapping interface. Registry implements
// it in memory; the deploy package implements it over TCP so distributed
// deployments share one registry (the DNS server role).
type Store interface {
	// Lookup resolves a name; ok is false when unregistered.
	Lookup(name string) (string, bool)
	// Set points a name at a site (registering or re-pointing on migration).
	Set(name, site string)
}

// Registry is the authoritative name-to-site mapping (the DNS server role).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]string
	lookups int64
	updates int64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]string{}}
}

// Set points a name at a site (registering or re-pointing on migration).
func (r *Registry) Set(name, site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = site
	r.updates++
}

// Lookup resolves a name; ok is false when unregistered.
func (r *Registry) Lookup(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	s, ok := r.entries[name]
	return s, ok
}

// Delete removes a name.
func (r *Registry) Delete(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, name)
}

// Stats returns (lookups served, updates applied).
func (r *Registry) Stats() (int64, int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lookups, r.updates
}

// Len returns the number of registered names.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// RegisterSubtree registers every IDable node of a partitioned document to
// its owning site, using the assignment function.
func (r *Registry) RegisterSubtree(doc *xmldb.Node, service string, ownerOf func(xmldb.IDPath) string) {
	var walk func(n *xmldb.Node, p xmldb.IDPath)
	walk = func(n *xmldb.Node, p xmldb.IDPath) {
		r.Set(DNSName(p, service), ownerOf(p))
		for _, c := range n.Children {
			if c.ID() != "" {
				walk(c, p.Child(c.Name, c.ID()))
			}
		}
	}
	walk(doc, xmldb.IDPath{{Name: doc.Name, ID: doc.ID()}})
}

// Client is a per-site (or per-frontend) resolver with a TTL cache,
// modeling the nearby DNS server that caches entries after the first
// multi-hop lookup.
type Client struct {
	reg     Store
	service string
	ttl     time.Duration
	now     func() time.Time

	mu    sync.Mutex
	cache map[string]cacheEntry
	hits  int64
	miss  int64
}

type cacheEntry struct {
	site    string
	expires time.Time
}

// NewClient builds a resolver against the registry. ttl <= 0 disables
// caching. now == nil uses time.Now.
func NewClient(reg Store, service string, ttl time.Duration, now func() time.Time) *Client {
	if now == nil {
		now = time.Now
	}
	return &Client{
		reg: reg, service: service, ttl: ttl, now: now,
		cache: map[string]cacheEntry{},
	}
}

// Resolve returns the site owning the IDable node at the path, walking up
// the hierarchy (longest-prefix, like DNS) when the exact name has no
// entry — the paper's architectures 1 and 2 register only high-level nodes.
// The full DNS name is built exactly once; each shorter prefix's name is a
// suffix of it, indexed by the offsets appendName records.
func (c *Client) Resolve(p xmldb.IDPath) (string, error) {
	var b strings.Builder
	var offs [16]int
	starts := appendName(&b, p, c.service, offs[:0])
	full := b.String()
	for _, off := range starts {
		if site, ok := c.resolveName(full[off:]); ok {
			return site, nil
		}
	}
	return "", fmt.Errorf("naming: no site found for %s (service %s)", p, c.service)
}

// ResolveExact resolves the node's own name with no prefix fallback.
func (c *Client) ResolveExact(p xmldb.IDPath) (string, bool) {
	return c.resolveName(DNSName(p, c.service))
}

func (c *Client) resolveName(name string) (string, bool) {
	if c.ttl > 0 {
		c.mu.Lock()
		e, ok := c.cache[name]
		if ok && c.now().Before(e.expires) {
			c.hits++
			c.mu.Unlock()
			return e.site, true
		}
		c.miss++
		c.mu.Unlock()
	}
	site, ok := c.reg.Lookup(name)
	if !ok {
		return "", false
	}
	if c.ttl > 0 {
		c.mu.Lock()
		c.cache[name] = cacheEntry{site: site, expires: c.now().Add(c.ttl)}
		c.mu.Unlock()
	}
	return site, true
}

// Invalidate drops a cached name (tests and migration drills).
func (c *Client) Invalidate(p xmldb.IDPath) {
	name := DNSName(p, c.service)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cache, name)
}

// CacheStats returns (hits, misses).
func (c *Client) CacheStats() (int64, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}
