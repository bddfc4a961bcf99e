package deploy

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"irisnet/internal/site"
	"irisnet/internal/xmldb"
)

const testDoc = `<usRegion id="NE">
  <state id="PA">
    <county id="Allegheny">
      <city id="Pittsburgh">
        <neighborhood id="Oakland" zipcode="15213">
          <block id="1">
            <parkingSpace id="1"><available>yes</available></parkingSpace>
            <parkingSpace id="2"><available>no</available></parkingSpace>
          </block>
        </neighborhood>
        <neighborhood id="Shadyside" zipcode="15232">
          <block id="1">
            <parkingSpace id="1"><available>yes</available></parkingSpace>
          </block>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>`

const pgh = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']"

// freeAddrs reserves n distinct loopback addresses by binding ephemeral
// listeners and closing them; the topology file needs concrete ports every
// process can dial.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	out := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		out[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return out
}

// writeTopology builds a topology file with concrete free ports.
func writeTopology(t *testing.T) (*Topology, string) {
	t.Helper()
	dir := t.TempDir()
	docPath := filepath.Join(dir, "db.xml")
	if err := os.WriteFile(docPath, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs := freeAddrs(t, 4)
	topo := map[string]any{
		"service":  "parking.test",
		"document": "db.xml",
		"sites": map[string]string{
			"root-site": addrs[0],
			"oakland":   addrs[1],
			"shadyside": addrs[2],
		},
		"rootOwner": "root-site",
		"ownership": map[string]string{
			pgh + "/neighborhood[@id='Oakland']":   "oakland",
			pgh + "/neighborhood[@id='Shadyside']": "shadyside",
		},
		"registry": addrs[3],
	}
	b, err := json.MarshalIndent(topo, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	topoPath := filepath.Join(dir, "topo.json")
	if err := os.WriteFile(topoPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTopology(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	return loaded, topoPath
}

// startDeployment runs all three sites in-process over real TCP sockets,
// exactly as three irisnetd processes would.
func startDeployment(t *testing.T) *Topology {
	t.Helper()
	topo, _ := writeTopology(t)
	rootNode, err := StartSite(topo, "root-site", SiteOptions{HostRegistry: true, Site: site.Config{Caching: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rootNode.Stop)
	for _, name := range []string{"oakland", "shadyside"} {
		node, err := StartSite(topo, name, SiteOptions{Site: site.Config{Caching: true}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
	}
	return topo
}

// TestStartSiteBuildsFromTemplate: a site option is a site.Config field, and
// StartSite passes the caller's template through whole. It fills in only the
// identity and wiring, the inferred schema, four CPU slots and the per-site
// data directory.
func TestStartSiteBuildsFromTemplate(t *testing.T) {
	topo, _ := writeTopology(t)
	dataDir := t.TempDir()
	tmpl := site.Config{
		Caching:              true,
		CacheBudgetBytes:     4096,
		BatchByteCap:         512,
		CallTimeout:          70 * time.Millisecond,
		ReplicaFlushInterval: 3 * time.Millisecond,
		DataDir:              dataDir,
	}
	node, err := StartSite(topo, "root-site", SiteOptions{HostRegistry: true, Site: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if got := node.Site.Debug().CacheBudget; got != tmpl.CacheBudgetBytes {
		t.Fatalf("running site reports cache budget %d, want %d", got, tmpl.CacheBudgetBytes)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "root-site")); err != nil {
		t.Fatalf("site did not open its own directory under DataDir: %v", err)
	}

	doc, err := topo.LoadDocument()
	if err != nil {
		t.Fatal(err)
	}
	got := siteConfig(tmpl, topo, "root-site", node.Net, node.registry, doc)
	if got.DNS == nil || got.Schema == nil || !got.Schema.IDable["parkingSpace"] {
		t.Fatalf("resolver or inferred schema missing: %+v", got)
	}
	want := tmpl
	want.Name, want.Service, want.Net, want.Registry = "root-site", topo.Service, node.Net, node.registry
	want.DNS, want.Schema = got.DNS, got.Schema
	want.CPUSlots = 4
	want.DataDir = filepath.Join(dataDir, "root-site")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("site config built from the template\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadTopologyValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(v map[string]any) string {
		b, _ := json.Marshal(v)
		p := filepath.Join(dir, "t.json")
		os.WriteFile(p, b, 0o644)
		return p
	}
	bad := []map[string]any{
		{},
		{"service": "s"},
		{"service": "s", "document": "d.xml"},
		{"service": "s", "document": "d.xml", "sites": map[string]string{"a": "x"}},
		{"service": "s", "document": "d.xml", "sites": map[string]string{"a": "x"},
			"rootOwner": "missing", "registry": "r"},
		{"service": "s", "document": "d.xml", "sites": map[string]string{"a": "x"},
			"rootOwner": "a", "registry": "r",
			"ownership": map[string]string{"/p[@id='1']": "unknown-site"}},
		{"service": "s", "document": "d.xml", "sites": map[string]string{"a": "x"},
			"rootOwner": "a", "registry": "r",
			"ownership": map[string]string{"not-a-path": "a"}},
	}
	for i, v := range bad {
		if _, err := LoadTopology(write(v)); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := LoadTopology(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestTCPDeploymentEndToEnd(t *testing.T) {
	topo := startDeployment(t)
	fe := NewFrontend(topo)

	// Self-starting query routed to the Oakland site.
	q := pgh + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes']"
	entry, _, err := fe.RouteOf(q)
	if err != nil {
		t.Fatal(err)
	}
	if entry != "oakland" {
		t.Fatalf("entry = %q, want oakland", entry)
	}
	nodes, err := fe.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].ID() != "1" {
		t.Fatalf("answer = %v", nodes)
	}

	// Cross-neighborhood query gathers over TCP.
	q2 := pgh + "/neighborhood[@id='Oakland' OR @id='Shadyside']/block[@id='1']/parkingSpace[available='yes']"
	nodes2, err := fe.Query(q2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes2) != 2 {
		t.Fatalf("cross-neighborhood answer = %d, want 2", len(nodes2))
	}

	// Updates flow to the owner and become visible.
	sp, err := fe.Query(pgh + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='2']")
	if err != nil || len(sp) != 1 {
		t.Fatalf("space 2: %v %v", sp, err)
	}
	p, _ := xmldb.ParseIDPath(pgh + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='2']")
	if err := fe.Update(p, map[string]string{"available": "yes"}, nil); err != nil {
		t.Fatal(err)
	}
	nodes3, err := fe.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes3) != 2 {
		t.Fatalf("after update: %d available, want 2", len(nodes3))
	}
}

func TestRemoteRegistry(t *testing.T) {
	topo := startDeployment(t)
	rr := NewRemoteRegistry(topo.network())
	siteName, ok := rr.Lookup("oakland.pittsburgh.allegheny.pa.ne.parking.test")
	if !ok || siteName != "oakland" {
		t.Fatalf("remote lookup = %q, %v", siteName, ok)
	}
	if _, ok := rr.Lookup("nonexistent.parking.test"); ok {
		t.Fatal("missing name resolved")
	}
	rr.Set("custom.parking.test", "shadyside")
	if s, ok := rr.Lookup("custom.parking.test"); !ok || s != "shadyside" {
		t.Fatalf("remote set/lookup = %q, %v", s, ok)
	}
}

func TestStartSiteErrors(t *testing.T) {
	topo, _ := writeTopology(t)
	if _, err := StartSite(topo, "no-such-site", SiteOptions{}); err == nil {
		t.Fatal("unknown site should error")
	}
	// Missing document file.
	topo2 := *topo
	topo2.Document = "missing.xml"
	if _, err := StartSite(&topo2, "root-site", SiteOptions{}); err == nil {
		t.Fatal("missing document should error")
	}
}

func TestRawFragmentQuery(t *testing.T) {
	topo := startDeployment(t)
	fe := NewFrontend(topo)
	frag, err := fe.QueryFragment(pgh + "/neighborhood[@id='Shadyside']")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(frag.String(), "Shadyside") {
		t.Fatalf("fragment missing data: %s", frag)
	}
	if !strings.Contains(frag.String(), "status=") {
		t.Fatal("raw fragment should carry status tags")
	}
}
