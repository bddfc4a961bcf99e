package naming

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"irisnet/internal/xmldb"
)

func path(t *testing.T, s string) xmldb.IDPath {
	t.Helper()
	p, err := xmldb.ParseIDPath(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const pgh = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']"

func TestDNSNamePaperExample(t *testing.T) {
	// Section 3.4's example name for the Pittsburgh node.
	got := DNSName(path(t, pgh), "parking.intel-iris.net")
	want := "pittsburgh.allegheny.pa.ne.parking.intel-iris.net"
	if got != want {
		t.Fatalf("DNSName = %q, want %q", got, want)
	}
}

func TestDNSNameNumericIDs(t *testing.T) {
	// Numeric ids are prefixed with the element name so block 1 and
	// parkingSpace 1 do not collide at adjacent levels.
	blk := DNSName(path(t, pgh+"/neighborhood[@id='Oakland']/block[@id='1']"), "svc")
	ps := DNSName(path(t, pgh+"/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='1']"), "svc")
	if blk == ps {
		t.Fatalf("names collide: %q", blk)
	}
	if blk != "block-1.oakland.pittsburgh.allegheny.pa.ne.svc" {
		t.Fatalf("block name = %q", blk)
	}
}

func TestDNSNameSanitization(t *testing.T) {
	p := xmldb.IDPath{{Name: "usRegion", ID: "NE"}, {Name: "city", ID: "New York!"}}
	got := DNSName(p, "svc")
	if got != "new-york-.ne.svc" {
		t.Fatalf("sanitized name = %q", got)
	}
	// Empty id root is dropped.
	p2 := xmldb.IDPath{{Name: "root", ID: ""}, {Name: "city", ID: "X"}}
	if DNSName(p2, "svc") != "x.svc" {
		t.Fatalf("rootless name = %q", DNSName(p2, "svc"))
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Set("a.svc", "site1")
	if s, ok := r.Lookup("a.svc"); !ok || s != "site1" {
		t.Fatalf("Lookup = %q, %v", s, ok)
	}
	if _, ok := r.Lookup("missing.svc"); ok {
		t.Fatal("missing name should not resolve")
	}
	r.Set("a.svc", "site2") // re-point (migration)
	if s, _ := r.Lookup("a.svc"); s != "site2" {
		t.Fatal("re-point failed")
	}
	r.Delete("a.svc")
	if _, ok := r.Lookup("a.svc"); ok {
		t.Fatal("deleted name still resolves")
	}
	lookups, updates := r.Stats()
	if lookups != 4 || updates != 2 {
		t.Fatalf("stats = %d lookups, %d updates", lookups, updates)
	}
}

func TestRegisterSubtree(t *testing.T) {
	doc := xmldb.MustParse(`<usRegion id="NE"><state id="PA"><county id="A">
		<city id="P"><neighborhood id="Oak"/><neighborhood id="Sha"/></city>
	</county></state></usRegion>`)
	r := NewRegistry()
	r.RegisterSubtree(doc, "svc", func(p xmldb.IDPath) string {
		if len(p) == 5 {
			return "leaf-site"
		}
		return "top-site"
	})
	if r.Len() != 6 {
		t.Fatalf("registered %d names, want 6", r.Len())
	}
	if s, _ := r.Lookup("oak.p.a.pa.ne.svc"); s != "leaf-site" {
		t.Fatalf("neighborhood owner = %q", s)
	}
	if s, _ := r.Lookup("ne.svc"); s != "top-site" {
		t.Fatalf("root owner = %q", s)
	}
}

func TestClientResolveLongestPrefix(t *testing.T) {
	r := NewRegistry()
	r.Set("ne.svc", "central")
	c := NewClient(r, "svc", 0, nil)
	// Deep node with no own entry resolves via the root's entry,
	// reproducing architectures 1/2 where only high levels are registered.
	site, err := c.Resolve(path(t, pgh+"/neighborhood[@id='Oakland']"))
	if err != nil || site != "central" {
		t.Fatalf("Resolve = %q, %v", site, err)
	}
	// Exact lookup does not fall back.
	if _, ok := c.ResolveExact(path(t, pgh)); ok {
		t.Fatal("ResolveExact should not fall back to prefixes")
	}
	// Unresolvable path errors.
	r2 := NewRegistry()
	c2 := NewClient(r2, "svc", 0, nil)
	if _, err := c2.Resolve(path(t, pgh)); err == nil {
		t.Fatal("empty registry should fail to resolve")
	}
}

func TestClientTTLCache(t *testing.T) {
	r := NewRegistry()
	r.Set("pittsburgh.allegheny.pa.ne.svc", "siteA")
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	c := NewClient(r, "svc", time.Minute, clock)
	p := path(t, pgh)
	if s, _ := c.ResolveExact(p); s != "siteA" {
		t.Fatal("first resolve")
	}
	// Registry re-pointed, but the cache still answers within TTL.
	r.Set("pittsburgh.allegheny.pa.ne.svc", "siteB")
	if s, _ := c.ResolveExact(p); s != "siteA" {
		t.Fatal("cached entry should be served within TTL")
	}
	// After TTL expiry the new entry is fetched.
	now = now.Add(2 * time.Minute)
	if s, _ := c.ResolveExact(p); s != "siteB" {
		t.Fatal("expired entry should re-resolve")
	}
	hits, miss := c.CacheStats()
	if hits != 1 || miss != 2 {
		t.Fatalf("cache stats = %d hits, %d misses", hits, miss)
	}
	// Invalidate drops the entry immediately.
	r.Set("pittsburgh.allegheny.pa.ne.svc", "siteC")
	c.Invalidate(p)
	if s, _ := c.ResolveExact(p); s != "siteC" {
		t.Fatal("invalidate did not drop the entry")
	}
}

// TestRegistryConcurrentAccess hammers register/repoint/delete and lookup
// from many goroutines; run under -race this is the repoint primitive's
// safety net.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const names = 8
	name := func(i int) string { return fmt.Sprintf("n%d.svc", i%names) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Set(name(i), fmt.Sprintf("site-%d-%d", g, i%3))
				if i%7 == 0 {
					r.Delete(name(i))
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Lookup(name(i))
				r.Len()
				r.Stats()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestRepointDuringResolve repoints a name while clients resolve through
// it — the migration move. Every resolve must land on one of the two legal
// owners, never fail, never see a torn value.
func TestRepointDuringResolve(t *testing.T) {
	r := NewRegistry()
	p := path(t, pgh)
	name := DNSName(p, "svc")
	r.Set(name, "old-owner")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex
	bad := ""
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(r, "svc", 0, nil)
			for {
				select {
				case <-stop:
					return
				default:
				}
				site, err := c.Resolve(p)
				if err != nil || (site != "old-owner" && site != "new-owner") {
					mu.Lock()
					bad = fmt.Sprintf("Resolve = %q, %v", site, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		r.Set(name, "new-owner")
		r.Set(name, "old-owner")
	}
	close(stop)
	wg.Wait()
	if bad != "" {
		t.Fatal(bad)
	}
}

// BenchmarkResolve measures the longest-prefix walk on a deep path whose
// entry sits at the top of the hierarchy — the worst case for the walk,
// and the hot path for every subquery dispatch.
func BenchmarkResolve(b *testing.B) {
	r := NewRegistry()
	r.Set("ne.svc", "central")
	c := NewClient(r, "svc", 0, nil)
	p, err := xmldb.ParseIDPath(pgh + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='7']")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Resolve(p); err != nil {
			b.Fatal(err)
		}
	}
}
