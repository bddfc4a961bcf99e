package site

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/qeg"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
	"irisnet/internal/xpath"
	"irisnet/internal/xpatheval"
)

// testDeployment wires a small hierarchical deployment (Figure 6 iv shape)
// over an in-process network with no latency.
type testDeployment struct {
	net      *transport.SimNet
	registry *naming.Registry
	sites    map[string]*Site
	db       *workload.DB
	assign   *fragment.Assignment
	clock    func() float64
}

func deploy(t *testing.T, caching bool) *testDeployment {
	return deployCfg(t, caching, transport.SimConfig{}, nil)
}

// deployCfg is deploy with a custom simulated network and an optional
// per-site config mutator (batching caps, coalescing switches).
func deployCfg(t *testing.T, caching bool, sim transport.SimConfig, mut func(*Config)) *testDeployment {
	t.Helper()
	cfg := workload.DBConfig{Cities: 2, Neighborhoods: 2, Blocks: 3, Spaces: 3, Seed: 5}
	db := workload.Build(cfg)
	assign := fragment.NewAssignment("root-site")
	for c := 0; c < cfg.Cities; c++ {
		assign.Assign(db.CityPath(c), "city-"+workload.CityName(c))
		for n := 0; n < cfg.Neighborhoods; n++ {
			assign.Assign(db.NeighborhoodPath(c, n), "nb-"+workload.CityName(c)+"-"+workload.NeighborhoodName(n))
		}
	}
	d := &testDeployment{
		net:      transport.NewSimNet(sim),
		registry: naming.NewRegistry(),
		sites:    map[string]*Site{},
		db:       db,
		assign:   assign,
		clock:    func() float64 { return 1000 },
	}
	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range assign.Sites() {
		sc := Config{
			Name:     name,
			Service:  workload.Service,
			Net:      d.net,
			DNS:      naming.NewClient(d.registry, workload.Service, time.Hour, nil),
			Registry: d.registry,
			Schema:   db.Schema,
			Caching:  caching,
			CPUSlots: 1,
			Clock:    d.clock,
		}
		if mut != nil {
			mut(&sc)
		}
		s := New(sc, workload.RootName, workload.RootID)
		s.Load(stores[name], owned[name])
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		d.sites[name] = s
	}
	d.registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	t.Cleanup(func() {
		for _, s := range d.sites {
			s.Stop()
		}
	})
	return d
}

// query sends a query message straight to a site and returns the fragment.
func (d *testDeployment) query(t *testing.T, siteName, q string) *xmldb.Node {
	t.Helper()
	frag, err := xmldb.ParseString(d.queryRaw(t, siteName, q).Fragment)
	if err != nil {
		t.Fatal(err)
	}
	return frag
}

func centralAnswer(t *testing.T, d *testDeployment, q string) []string {
	t.Helper()
	expr, err := xpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := xpatheval.Select(xpath.StripConsistency(expr),
		&xpatheval.Context{Root: d.db.Doc, Now: d.clock}, d.db.Doc)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(ns))
	for _, n := range ns {
		out = append(out, fragment.StripInternal(n).Canonical())
	}
	sort.Strings(out)
	return out
}

func extracted(t *testing.T, frag *xmldb.Node, q string, clock func() float64) []string {
	t.Helper()
	nodes, err := qeg.ExtractAnswer(frag, q, clock)
	if err != nil {
		t.Fatal(err)
	}
	ans := make([]string, 0, len(nodes))
	for _, n := range nodes {
		ans = append(ans, n.Canonical())
	}
	sort.Strings(ans)
	return ans
}

func TestSiteAnswersDistributedQuery(t *testing.T) {
	d := deploy(t, false)
	q := d.db.BlockQuery(0, 1, 2)
	for name := range d.sites {
		frag := d.query(t, name, q)
		got := extracted(t, frag, q, d.clock)
		want := centralAnswer(t, d, q)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("query at %s:\n got %v\nwant %v", name, got, want)
		}
	}
}

func TestSiteServesAllQueryTypes(t *testing.T) {
	d := deploy(t, false)
	queries := []string{
		d.db.BlockQuery(0, 0, 0),
		d.db.TwoBlockQuery(1, 1, 0, 1),
		d.db.TwoNeighborhoodQuery(0, 0, 1, 1, 2),
		d.db.TwoCityQuery(0, 0, 0, 1, 1, 1),
	}
	for _, q := range queries {
		frag := d.query(t, "root-site", q)
		got := extracted(t, frag, q, d.clock)
		want := centralAnswer(t, d, q)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("query %q:\n got %v\nwant %v", q, got, want)
		}
	}
}

func TestSiteUpdateFlow(t *testing.T) {
	d := deploy(t, false)
	target := d.db.SpacePaths[0]
	owner := d.assign.OwnerOf(target)
	msg := &Message{
		Kind:   KindUpdate,
		Path:   target.String(),
		Fields: map[string]string{"available": "updated-value"},
	}
	respB, err := d.net.Call(owner, msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := DecodeMessage(respB)
	if e := resp.AsError(); e != nil {
		t.Fatalf("update: %v", e)
	}
	if d.sites[owner].Metrics.Updates.Value() != 1 {
		t.Fatal("update not counted")
	}
	// The update is visible through queries and carries a timestamp.
	q := target.String()
	frag := d.query(t, owner, q)
	got := extracted(t, frag, q, d.clock)
	if len(got) != 1 || !strings.Contains(got[0], "updated-value") {
		t.Fatalf("updated value not visible: %v", got)
	}
	store := d.sites[owner].StoreSnapshot()
	n := store.NodeAt(target)
	if ts, ok := fragment.Timestamp(n); !ok || ts != 1000 {
		t.Fatalf("timestamp = %v, %v", ts, ok)
	}
}

func TestSiteUpdateRejectsUnknownNode(t *testing.T) {
	d := deploy(t, false)
	msg := &Message{
		Kind:   KindUpdate,
		Path:   "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Nowhere']",
		Fields: map[string]string{"x": "y"},
	}
	respB, err := d.net.Call("root-site", msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := DecodeMessage(respB)
	if resp.AsError() == nil {
		t.Fatal("update to unknown node should fail")
	}
}

func TestSiteCachingReducesSubqueries(t *testing.T) {
	d := deploy(t, true)
	q := d.db.BlockQuery(0, 0, 0)
	cityName := "city-" + workload.CityName(0)
	city := d.sites[cityName]

	d.query(t, cityName, q)
	subsAfterFirst := city.Metrics.Subqueries.Value()
	if subsAfterFirst == 0 {
		t.Fatal("first query should need subqueries")
	}
	d.query(t, cityName, q)
	if got := city.Metrics.Subqueries.Value(); got != subsAfterFirst {
		t.Fatalf("cached repeat should ask no new subqueries: %d -> %d", subsAfterFirst, got)
	}
	if city.Metrics.CacheHits.Value() == 0 {
		t.Fatal("repeat should count as a local answer")
	}
	// Correctness preserved.
	frag := d.query(t, cityName, q)
	got := extracted(t, frag, q, d.clock)
	want := centralAnswer(t, d, q)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("cached answer wrong:\n got %v\nwant %v", got, want)
	}
}

func TestSiteNoCachingKeepsAsking(t *testing.T) {
	d := deploy(t, false)
	q := d.db.BlockQuery(0, 0, 0)
	cityName := "city-" + workload.CityName(0)
	city := d.sites[cityName]
	d.query(t, cityName, q)
	first := city.Metrics.Subqueries.Value()
	d.query(t, cityName, q)
	if got := city.Metrics.Subqueries.Value(); got != 2*first {
		t.Fatalf("without caching the repeat should re-ask: %d -> %d", first, got)
	}
}

func TestMigration(t *testing.T) {
	d := deploy(t, false)
	blockPath := d.db.BlockPath(0, 0, 1)
	oldOwner := d.sites[d.assign.OwnerOf(blockPath)]
	newOwnerName := "nb-" + workload.CityName(1) + "-" + workload.NeighborhoodName(1)
	newOwner := d.sites[newOwnerName]

	if err := oldOwner.Delegate(blockPath, newOwnerName); err != nil {
		t.Fatalf("delegate: %v", err)
	}
	// Ownership moved: block + its 3 spaces.
	if oldOwner.Owns(blockPath) {
		t.Fatal("old owner still owns the block")
	}
	if !newOwner.Owns(blockPath) {
		t.Fatal("new owner does not own the block")
	}
	for _, sp := range d.db.SpacePaths {
		if blockPath.IsPrefixOf(sp) && !newOwner.Owns(sp) {
			t.Fatalf("space %s did not migrate with its block", sp)
		}
	}
	// DNS repointed.
	if owner, _ := naming.NewClient(d.registry, workload.Service, 0, nil).ResolveExact(blockPath); owner != newOwnerName {
		t.Fatalf("DNS still points at %s", owner)
	}
	// Old owner's copy downgraded to complete and still serves queries.
	snap := oldOwner.StoreSnapshot()
	if st := fragment.StatusOf(snap.NodeAt(blockPath)); st != fragment.StatusComplete {
		t.Fatalf("old owner's copy has status %v, want complete", st)
	}
	q := blockPath.String() + "/parkingSpace[available='yes']"
	want := centralAnswer(t, d, q)
	for _, entry := range []string{oldOwner.Name(), newOwnerName, "root-site"} {
		frag := d.query(t, entry, q)
		got := extracted(t, frag, q, d.clock)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("post-migration query at %s:\n got %v\nwant %v", entry, got, want)
		}
	}
}

func TestMigrationErrors(t *testing.T) {
	d := deploy(t, false)
	blockPath := d.db.BlockPath(0, 0, 0)
	owner := d.sites[d.assign.OwnerOf(blockPath)]
	if err := owner.Delegate(blockPath, owner.Name()); err == nil {
		t.Fatal("delegating to self should fail")
	}
	other := d.sites["root-site"]
	if err := other.Delegate(blockPath, owner.Name()); err == nil {
		t.Fatal("delegating an unowned node should fail")
	}
}

// TestUpdateForwardingAfterMigration: a sensing agent with a stale DNS cache
// sends an update to the old owner, which must forward it to the new owner.
// With warmDNS the old owner's own DNS cache still names the old owner, so
// only its forwarding table knows where the node went.
func TestUpdateForwardingAfterMigration(t *testing.T) {
	for _, warmDNS := range []bool{false, true} {
		t.Run(fmt.Sprintf("warmDNS=%v", warmDNS), func(t *testing.T) {
			d := deploy(t, false)
			blockPath := d.db.BlockPath(0, 0, 0)
			spacePath := blockPath.Child("parkingSpace", "1")
			oldOwnerName := d.assign.OwnerOf(blockPath)
			oldOwner := d.sites[oldOwnerName]
			if warmDNS {
				if owner, _ := oldOwner.cfg.DNS.ResolveExact(spacePath); owner != oldOwnerName {
					t.Fatalf("test premise broken: %s resolves to %q", spacePath, owner)
				}
			}
			if err := oldOwner.Delegate(blockPath, "root-site"); err != nil {
				t.Fatal(err)
			}
			msg := &Message{Kind: KindUpdate, Path: spacePath.String(), Fields: map[string]string{"available": "fwd"}}
			respB, err := d.net.Call(oldOwnerName, msg.Encode())
			if err != nil {
				t.Fatal(err)
			}
			resp, _ := DecodeMessage(respB)
			if e := resp.AsError(); e != nil {
				t.Fatalf("forwarded update failed: %v", e)
			}
			if oldOwner.Metrics.Forwards.Value() != 1 {
				t.Fatal("forward not counted")
			}
			if d.sites["root-site"].Metrics.Updates.Value() != 1 {
				t.Fatal("new owner did not apply the forwarded update")
			}
			snap := d.sites["root-site"].StoreSnapshot()
			n := snap.NodeAt(spacePath)
			if n.ChildNamed("available").Text != "fwd" {
				t.Fatal("forwarded value not applied")
			}
		})
	}
}

func TestInvariantsAfterTraffic(t *testing.T) {
	d := deploy(t, true)
	queries := []string{
		d.db.BlockQuery(0, 0, 0),
		d.db.TwoBlockQuery(0, 1, 0, 2),
		d.db.TwoNeighborhoodQuery(1, 0, 1, 1, 0),
		d.db.TwoCityQuery(0, 1, 2, 1, 0, 0),
	}
	for _, q := range queries {
		for name := range d.sites {
			d.query(t, name, q)
		}
	}
	// After heavy cached traffic every site still satisfies the storage
	// invariants against the reference document.
	for name, s := range d.sites {
		snap := s.StoreSnapshot()
		var owned []xmldb.IDPath
		for _, k := range s.OwnedPaths() {
			p, err := xmldb.ParseIDPath(k)
			if err != nil {
				t.Fatal(err)
			}
			owned = append(owned, p)
		}
		if errs := fragment.CheckInvariants(snap, d.db.Doc, owned, true); len(errs) > 0 {
			t.Fatalf("site %s invariants after traffic: %v", name, errs)
		}
	}
}

func TestBadMessages(t *testing.T) {
	d := deploy(t, false)
	// Unknown kind.
	respB, err := d.net.Call("root-site", (&Message{Kind: "bogus"}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := DecodeMessage(respB)
	if resp.AsError() == nil {
		t.Fatal("unknown kind should error")
	}
	// Corrupt payload.
	respB, err = d.net.Call("root-site", []byte("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = DecodeMessage(respB)
	if resp.AsError() == nil {
		t.Fatal("corrupt payload should error")
	}
	// Bad query.
	respB, _ = d.net.Call("root-site", (&Message{Kind: KindQuery, Query: "]["}).Encode())
	resp, _ = DecodeMessage(respB)
	if resp.AsError() == nil {
		t.Fatal("bad query should error")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{Kind: KindQuery, Query: "/a[@id='1']", Fields: map[string]string{"k": "v"}}
	got, err := DecodeMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Query != m.Query || got.Fields["k"] != "v" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if (&Message{Kind: KindOK}).AsError() != nil {
		t.Fatal("ok message is not an error")
	}
}
