package irisnet

import (
	"strings"
	"testing"
	"time"
)

const demoDoc = `
<usRegion id="NE">
  <state id="PA">
    <county id="Allegheny">
      <city id="Pittsburgh">
        <neighborhood id="Oakland" zipcode="15213">
          <block id="1">
            <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
            <parkingSpace id="2"><available>no</available><price>0</price></parkingSpace>
          </block>
          <block id="2">
            <parkingSpace id="1"><available>yes</available><price>0</price></parkingSpace>
          </block>
        </neighborhood>
        <neighborhood id="Shadyside" zipcode="15232">
          <block id="1">
            <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
          </block>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>`

const pgh = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']"

func demo(t *testing.T, caching bool) *Deployment {
	t.Helper()
	d, err := New(Config{
		ServiceName: "parking.intel-iris.net",
		DocumentXML: demoDoc,
		RootOwner:   "root",
		Ownership: map[string]string{
			pgh:                                    "pittsburgh",
			pgh + "/neighborhood[@id='Oakland']":   "oakland",
			pgh + "/neighborhood[@id='Shadyside']": "shadyside",
		},
		Caching: caching,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestDeploymentQuery(t *testing.T) {
	d := demo(t, false)
	got, err := d.Query(pgh + "/neighborhood[@id='Oakland' OR @id='Shadyside']/block[@id='1']/parkingSpace[available='yes']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("answer size = %d, want 2", len(got))
	}
	xml, err := d.QueryXML(pgh + "/neighborhood[@id='Oakland']/@zipcode")
	if err != nil {
		t.Fatal(err)
	}
	if len(xml) != 1 || !strings.Contains(xml[0], "15213") {
		t.Fatalf("zipcode = %v", xml)
	}
}

func TestDeploymentRouting(t *testing.T) {
	d := demo(t, false)
	entry, err := d.RouteOf(pgh + "/neighborhood[@id='Oakland']/block[@id='1']")
	if err != nil || entry != "oakland" {
		t.Fatalf("entry = %q, %v", entry, err)
	}
	entry, err = d.RouteOf(pgh + "/neighborhood[@id='Oakland' OR @id='Shadyside']/block")
	if err != nil || entry != "pittsburgh" {
		t.Fatalf("OR-query entry = %q, %v", entry, err)
	}
}

func TestDeploymentUpdateAndFreshness(t *testing.T) {
	now := 100.0
	d, err := New(Config{
		ServiceName: "svc",
		DocumentXML: demoDoc,
		RootOwner:   "solo",
		Clock:       func() float64 { return now },
		Latency:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	space := pgh + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[@id='2']"
	if err := d.Update(space, map[string]string{"available": "yes"}, nil); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	got, err := d.Query(pgh + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes']")
	if err != nil {
		t.Fatal(err)
	}
	// The query crosses the simulated network to "solo" and back.
	if took := time.Since(t0); took < 4*time.Millisecond {
		t.Fatalf("query took %v, want at least one 2ms-each-way round trip", took)
	}
	if len(got) != 2 {
		t.Fatalf("after update: %d available, want 2", len(got))
	}
	// Freshness-tolerant query still answered by the owner even when stale.
	now = 10000
	got, err = d.Query(pgh + "/neighborhood[@id='Oakland']/block[@id='1']/parkingSpace[available='yes' and @ts >= now() - 30]")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("owner must answer with freshest data despite staleness")
	}
}

func TestDeploymentDelegate(t *testing.T) {
	d := demo(t, false)
	block := pgh + "/neighborhood[@id='Oakland']/block[@id='1']"
	if err := d.Delegate(block, "shadyside"); err != nil {
		t.Fatal(err)
	}
	owner, err := d.OwnerOf(block)
	if err != nil || owner != "shadyside" {
		t.Fatalf("owner after delegate = %q, %v", owner, err)
	}
	// Queries still correct.
	got, err := d.Query(block + "/parkingSpace[available='yes']")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("post-delegate answer = %d", len(got))
	}
	if err := d.Delegate(block, "no-such-site"); err == nil {
		t.Fatal("unknown target site should error")
	}
}

func TestDeploymentStatsAndCaching(t *testing.T) {
	d := demo(t, true)
	q := pgh + "/neighborhood[@id='Oakland']/block[@id='2']/parkingSpace"
	if _, err := d.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(q); err != nil {
		t.Fatal(err)
	}
	st, err := d.Stats("oakland")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries == 0 {
		t.Fatal("oakland served no queries")
	}
	if _, err := d.Stats("nope"); err == nil {
		t.Fatal("unknown site stats should error")
	}
	sites := d.Sites()
	if len(sites) != 4 {
		t.Fatalf("sites = %v", sites)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{DocumentXML: demoDoc, RootOwner: "r"}); err == nil {
		t.Fatal("missing service name should error")
	}
	if _, err := New(Config{ServiceName: "s", DocumentXML: demoDoc}); err == nil {
		t.Fatal("missing root owner should error")
	}
	if _, err := New(Config{ServiceName: "s", RootOwner: "r", DocumentXML: "<bad"}); err == nil {
		t.Fatal("bad document should error")
	}
	if _, err := New(Config{ServiceName: "s", RootOwner: "r", DocumentXML: demoDoc,
		Ownership: map[string]string{"not a path": "x"}}); err == nil {
		t.Fatal("bad ownership path should error")
	}
	if _, err := New(Config{ServiceName: "s", RootOwner: "r", DocumentXML: demoDoc,
		Ownership: map[string]string{pgh + "/neighborhood[@id='Nowhere']": "x"}}); err == nil {
		t.Fatal("ownership path outside document should error")
	}
}

func TestInferSchema(t *testing.T) {
	doc, err := ParseXML(demoDoc)
	if err != nil {
		t.Fatal(err)
	}
	s := InferSchema(doc)
	if !s.IDable["parkingSpace"] || !s.IDable["usRegion"] {
		t.Fatal("IDable inference failed")
	}
	if s.IDable["available"] {
		t.Fatal("available should not be IDable")
	}
	found := false
	for _, c := range s.Children["block"] {
		if c == "parkingSpace" {
			found = true
		}
	}
	if !found {
		t.Fatal("children inference failed")
	}
}

func TestParseHelpers(t *testing.T) {
	p, err := ParseIDPath(pgh)
	if err != nil || len(p) != 4 {
		t.Fatalf("ParseIDPath: %v %v", p, err)
	}
	if _, err := ParseXML("<a/>"); err != nil {
		t.Fatal(err)
	}
}

func TestDeploymentSchemaChange(t *testing.T) {
	d := demo(t, false)
	oak := pgh + "/neighborhood[@id='Oakland']"
	if err := d.SchemaChange(OpSetAttrs, oak, map[string]string{"numberOfFreeSpots": "3"}); err != nil {
		t.Fatal(err)
	}
	got, err := d.Query(pgh + "/neighborhood[@numberOfFreeSpots > 0]")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID() != "Oakland" {
		t.Fatalf("query over new attribute = %v", got)
	}
	// A new block appears and is immediately addressable.
	if err := d.SchemaChange(OpAddIDable, oak, map[string]string{"name": "block", "id": "9"}); err != nil {
		t.Fatal(err)
	}
	owner, err := d.OwnerOf(oak + "/block[@id='9']")
	if err != nil || owner != "oakland" {
		t.Fatalf("new block owner = %q, %v", owner, err)
	}
	if err := d.SchemaChange(OpDelIDable, oak, map[string]string{"name": "block", "id": "9"}); err != nil {
		t.Fatal(err)
	}
	// Errors propagate.
	if err := d.SchemaChange(OpSetAttrs, "not a path", nil); err == nil {
		t.Fatal("bad path should error")
	}
}
