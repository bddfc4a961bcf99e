package fragment

import (
	"math/rand"
	"testing"
	"testing/quick"

	"irisnet/internal/xmldb"
)

const paperDoc = `
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
            <parkingSpace id="1"><available>yes</available><price>50</price></parkingSpace>
          </block>
          <available-spaces>8</available-spaces>
        </neighborhood>
        <neighborhood id="Shadyside" zipcode="15232">
          <block id="1">
            <parkingSpace id="1"><available>no</available><price>25</price></parkingSpace>
          </block>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>`

func doc(t *testing.T) *xmldb.Node {
	t.Helper()
	n, err := xmldb.ParseString(paperDoc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func path(t testing.TB, s string) xmldb.IDPath {
	t.Helper()
	p, err := xmldb.ParseIDPath(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const oaklandPath = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']/neighborhood[@id='Oakland']"

func TestLocalInfoPaperExample(t *testing.T) {
	d := doc(t)
	oak := xmldb.FindByIDPath(d, path(t, oaklandPath))
	if oak == nil {
		t.Fatal("Oakland not found")
	}
	li := LocalInfo(oak)
	// The paper's Section 3.2 example: attributes, block ID stubs, and the
	// full available-spaces subtree.
	want := xmldb.MustParse(`<neighborhood id="Oakland" zipcode="15213">` +
		`<block id="1"/><block id="2"/><available-spaces>8</available-spaces></neighborhood>`)
	if !xmldb.Equal(li, want) {
		t.Fatalf("LocalInfo =\n  %s\nwant\n  %s", li, want)
	}

	idInfo := LocalIDInfo(oak)
	wantID := xmldb.MustParse(`<neighborhood id="Oakland"><block id="1"/><block id="2"/></neighborhood>`)
	if !xmldb.Equal(idInfo, wantID) {
		t.Fatalf("LocalIDInfo =\n  %s\nwant\n  %s", idInfo, wantID)
	}
}

func TestLocalInfoIsDetached(t *testing.T) {
	d := doc(t)
	oak := xmldb.FindByIDPath(d, path(t, oaklandPath))
	li := LocalInfo(oak)
	li.SetAttr("zipcode", "00000")
	if v, _ := oak.Attr("zipcode"); v != "15213" {
		t.Fatal("LocalInfo aliases the source document")
	}
	if li.Parent != nil {
		t.Fatal("LocalInfo should be detached")
	}
}

func TestStatusParsing(t *testing.T) {
	for _, st := range []Status{StatusIncomplete, StatusIDComplete, StatusComplete, StatusOwned} {
		got, err := ParseStatus(st.String())
		if err != nil || got != st {
			t.Errorf("round trip %v: %v, %v", st, got, err)
		}
	}
	if _, err := ParseStatus("bogus"); err == nil {
		t.Error("ParseStatus(bogus) should fail")
	}
	if !StatusOwned.HasLocalInfo() || !StatusComplete.HasLocalInfo() {
		t.Error("HasLocalInfo for owned/complete")
	}
	if StatusIDComplete.HasLocalInfo() || StatusIncomplete.HasLocalIDInfo() {
		t.Error("status capability flags wrong")
	}
	n := xmldb.NewElem("x", "1")
	if StatusOf(n) != StatusIncomplete {
		t.Error("missing status attr should default to incomplete")
	}
	n.SetAttr(xmldb.AttrStatus, "garbage")
	if StatusOf(n) != StatusIncomplete {
		t.Error("garbage status attr should default to incomplete")
	}
}

func TestEffectiveStatus(t *testing.T) {
	root := xmldb.NewElem("city", "P")
	SetStatus(root, StatusOwned)
	nonID := root.AddChild(xmldb.NewNode("stats"))
	deep := nonID.AddChild(xmldb.NewNode("count"))
	if EffectiveStatus(deep) != StatusOwned {
		t.Fatal("non-IDable nodes inherit lowest IDable ancestor's status")
	}
}

func TestPartitionArchitecture4(t *testing.T) {
	// Hierarchical partitioning: each neighborhood on its own site, city
	// level on another, rest on a root site (the paper's Figure 6(iv)).
	d := doc(t)
	a := NewAssignment("root-site")
	a.Assign(path(t, oaklandPath), "site-oakland")
	a.Assign(path(t, "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']/neighborhood[@id='Shadyside']"), "site-shadyside")
	stores, owned, err := Partition(d, a)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if len(stores) != 3 {
		t.Fatalf("stores = %d, want 3", len(stores))
	}
	// Every store satisfies the invariants against the reference document.
	for site, st := range stores {
		if errs := CheckInvariants(st, d, owned[site], true); len(errs) > 0 {
			t.Fatalf("site %s invariant violations: %v", site, errs)
		}
	}
	// Oakland's site owns the neighborhood and everything below it.
	if got := len(owned["site-oakland"]); got != 6 {
		// neighborhood + 2 blocks + 3 parking spaces
		t.Fatalf("site-oakland owns %d nodes, want 6", got)
	}
	// The root site's store must have Pittsburgh as id-complete with both
	// neighborhood IDs but no zipcode data for them.
	rootStore := stores["root-site"]
	oak := rootStore.NodeAt(path(t, oaklandPath))
	if oak == nil {
		t.Fatal("root site must hold Oakland's ID (I2)")
	}
	if StatusOf(oak) != StatusIncomplete {
		t.Fatalf("Oakland at root site = %v, want incomplete", StatusOf(oak))
	}
	if _, hasZip := oak.Attr("zipcode"); hasZip {
		t.Fatal("incomplete node must not carry local info")
	}
	// The Oakland site's store must know Shadyside's ID via Pittsburgh's
	// local ID info, enabling subsumption detection later.
	oakStore := stores["site-oakland"]
	shady := oakStore.NodeAt(path(t, "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='Pittsburgh']/neighborhood[@id='Shadyside']"))
	if shady == nil {
		t.Fatal("Oakland site must know Shadyside's ID (sibling IDs via ancestor local ID info)")
	}
}

func TestPartitionRejectsDuplicateIDs(t *testing.T) {
	d := xmldb.MustParse(`<r id="1"><b id="x"/><b id="x"/></r>`)
	a := NewAssignment("s1")
	if _, _, err := Partition(d, a); err == nil {
		t.Fatal("duplicate sibling ids should be rejected")
	}
}

func TestAssignmentInheritance(t *testing.T) {
	a := NewAssignment("root")
	p := path(t, "/usRegion[@id='NE']/state[@id='PA']")
	a.Assign(p, "pa-site")
	child := p.Child("county", "Allegheny")
	if a.OwnerOf(child) != "pa-site" {
		t.Fatal("child should inherit parent's owner")
	}
	if a.OwnerOf(path(t, "/usRegion[@id='NE']")) != "root" {
		t.Fatal("unassigned top inherits root owner")
	}
	sites := a.Sites()
	if len(sites) != 2 || sites[0] != "pa-site" || sites[1] != "root" {
		t.Fatalf("Sites = %v", sites)
	}
}

func TestInstallAndEvict(t *testing.T) {
	d := doc(t)
	s := NewStore("usRegion", "NE")
	oakPath := path(t, oaklandPath)
	if err := s.EnsureAncestors(d, oakPath); err != nil {
		t.Fatal(err)
	}
	oakRef := xmldb.FindByIDPath(d, oakPath)
	if err := s.InstallLocalInfo(oakPath, LocalInfo(oakRef), StatusComplete); err != nil {
		t.Fatal(err)
	}
	n := s.NodeAt(oakPath)
	if StatusOf(n) != StatusComplete {
		t.Fatalf("status = %v", StatusOf(n))
	}
	if v, _ := n.Attr("zipcode"); v != "15213" {
		t.Fatal("local info attributes missing")
	}
	// Evict back down to id-complete.
	if err := s.EvictLocalInfo(oakPath); err != nil {
		t.Fatal(err)
	}
	n = s.NodeAt(oakPath)
	if StatusOf(n) != StatusIDComplete {
		t.Fatalf("status after evict = %v", StatusOf(n))
	}
	if _, hasZip := n.Attr("zipcode"); hasZip {
		t.Fatal("evicted node still has local info attribute")
	}
	if len(n.IDableChildren()) != 2 {
		t.Fatal("child ID stubs must survive local-info eviction")
	}
	if n.ChildNamed("available-spaces") != nil {
		t.Fatal("non-IDable children must be evicted with local info")
	}
	// Evicting again fails (not complete anymore).
	if err := s.EvictLocalInfo(oakPath); err == nil {
		t.Fatal("double evict should fail")
	}
}

func TestEvictRefusesOwned(t *testing.T) {
	d := doc(t)
	a := NewAssignment("s1")
	stores, _, err := Partition(d, a)
	if err != nil {
		t.Fatal(err)
	}
	s := stores["s1"]
	if err := s.EvictLocalInfo(path(t, oaklandPath)); err == nil {
		t.Fatal("evicting owned local info must fail")
	}
}

func TestEvictMissing(t *testing.T) {
	s := NewStore("usRegion", "NE")
	if err := s.EvictLocalInfo(path(t, oaklandPath)); err == nil {
		t.Fatal("evicting a missing node must fail")
	}
}

func TestMergeFragmentUpgrades(t *testing.T) {
	// A cache-less site merges an answer fragment carrying Oakland's local
	// info; statuses upgrade along the path.
	s := NewStore("usRegion", "NE")
	frag := xmldb.MustParse(`<usRegion id="NE" status="id-complete">` +
		`<state id="PA" status="id-complete">` +
		`<county id="Allegheny" status="id-complete">` +
		`<city id="Pittsburgh" status="id-complete">` +
		`<neighborhood id="Oakland" zipcode="15213" ts="100" status="complete">` +
		`<block id="1" status="incomplete"/><block id="2" status="incomplete"/>` +
		`<available-spaces>8</available-spaces>` +
		`</neighborhood></city></county></state></usRegion>`)
	if err := s.MergeFragment(frag); err != nil {
		t.Fatalf("merge: %v", err)
	}
	oak := s.NodeAt(path(t, oaklandPath))
	if oak == nil || StatusOf(oak) != StatusComplete {
		t.Fatalf("Oakland after merge: %v", oak)
	}
	if ts, ok := Timestamp(oak); !ok || ts != 100 {
		t.Fatalf("timestamp = %v, %v", ts, ok)
	}
	// Merging an older copy must not clobber the newer one.
	older := frag.Clone()
	oakOld := older.ChildNamed("state").ChildNamed("county").ChildNamed("city").ChildNamed("neighborhood")
	oakOld.SetAttr("ts", "50")
	oakOld.SetAttr("zipcode", "99999")
	if err := s.MergeFragment(older); err != nil {
		t.Fatal(err)
	}
	oak = s.NodeAt(path(t, oaklandPath))
	if v, _ := oak.Attr("zipcode"); v != "15213" {
		t.Fatal("older fragment overwrote newer cache")
	}
	// A newer copy does refresh.
	newer := frag.Clone()
	oakNew := newer.ChildNamed("state").ChildNamed("county").ChildNamed("city").ChildNamed("neighborhood")
	oakNew.SetAttr("ts", "200")
	oakNew.SetAttr("zipcode", "15214")
	if err := s.MergeFragment(newer); err != nil {
		t.Fatal(err)
	}
	oak = s.NodeAt(path(t, oaklandPath))
	if v, _ := oak.Attr("zipcode"); v != "15214" {
		t.Fatal("newer fragment did not refresh cache")
	}
}

func TestMergeNeverClobbersOwned(t *testing.T) {
	d := doc(t)
	a := NewAssignment("s1")
	stores, owned, err := Partition(d, a)
	if err != nil {
		t.Fatal(err)
	}
	s := stores["s1"]
	frag := xmldb.MustParse(`<usRegion id="NE" status="id-complete">` +
		`<state id="PA" status="id-complete">` +
		`<county id="Allegheny" status="id-complete">` +
		`<city id="Pittsburgh" status="id-complete">` +
		`<neighborhood id="Oakland" zipcode="WRONG" ts="999999" status="complete">` +
		`<block id="1" status="incomplete"/><block id="2" status="incomplete"/>` +
		`<available-spaces>0</available-spaces>` +
		`</neighborhood></city></county></state></usRegion>`)
	if err := s.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	oak := s.NodeAt(path(t, oaklandPath))
	if v, _ := oak.Attr("zipcode"); v != "15213" {
		t.Fatal("merge overwrote owned data")
	}
	if StatusOf(oak) != StatusOwned {
		t.Fatal("owned status lost")
	}
	if errs := CheckInvariants(s, d, owned["s1"], true); len(errs) > 0 {
		t.Fatalf("invariants broken: %v", errs)
	}
}

func TestMergeRejectsInvalidFragments(t *testing.T) {
	s := NewStore("usRegion", "NE")
	cases := []string{
		// C2 violation: complete child under incomplete parent.
		`<usRegion id="NE" status="incomplete"><state id="PA" status="complete"/></usRegion>`,
		// incomplete node with children.
		`<usRegion id="NE" status="id-complete"><state id="PA" status="incomplete"><county id="A" status="incomplete"/></state></usRegion>`,
		// id-complete node with non-IDable child.
		`<usRegion id="NE" status="id-complete"><junk/></usRegion>`,
		// non-IDable node under id-complete parent (C1).
		`<usRegion id="NE" status="id-complete"><state id="PA" status="id-complete"><junk/></state></usRegion>`,
	}
	for _, c := range cases {
		frag := xmldb.MustParse(c)
		if err := s.MergeFragment(frag); err == nil {
			t.Errorf("fragment should be rejected: %s", c)
		}
	}
	// Wrong root.
	if err := s.MergeFragment(xmldb.MustParse(`<other id="X" status="incomplete"/>`)); err == nil {
		t.Error("wrong-root fragment should be rejected")
	}
}

func TestMergePreservesRicherChildren(t *testing.T) {
	// If the store has a complete block and we merge Oakland's local info
	// (which only lists block ID stubs), the block's data must survive.
	d := doc(t)
	s := NewStore("usRegion", "NE")
	oakPath := path(t, oaklandPath)
	blkPath := oakPath.Child("block", "1")
	if err := s.EnsureAncestors(d, blkPath); err != nil {
		t.Fatal(err)
	}
	blkRef := xmldb.FindByIDPath(d, blkPath)
	if err := s.InstallLocalInfo(blkPath, LocalInfo(blkRef), StatusComplete); err != nil {
		t.Fatal(err)
	}
	oakRef := xmldb.FindByIDPath(d, oakPath)
	if err := s.InstallLocalInfo(oakPath, LocalInfo(oakRef), StatusComplete); err != nil {
		t.Fatal(err)
	}
	blk := s.NodeAt(blkPath)
	if StatusOf(blk) != StatusComplete || len(blk.IDableChildren()) != 2 {
		t.Fatalf("block data lost on parent local-info install: %v", blk)
	}
}

func TestTimestampHelpers(t *testing.T) {
	n := xmldb.NewElem("x", "1")
	if _, ok := Timestamp(n); ok {
		t.Fatal("no timestamp yet")
	}
	SetTimestamp(n, 123.5)
	ts, ok := Timestamp(n)
	if !ok || ts != 123.5 {
		t.Fatalf("timestamp = %v, %v", ts, ok)
	}
	n.SetAttr(xmldb.AttrTimestamp, "notanumber")
	if _, ok := Timestamp(n); ok {
		t.Fatal("bad timestamp should not parse")
	}
}

func TestStripInternal(t *testing.T) {
	n := xmldb.MustParse(`<a id="1" status="owned" ts="5"><b id="2" status="incomplete"/></a>`)
	out := StripInternal(n)
	if _, ok := out.Attr(xmldb.AttrStatus); ok {
		t.Fatal("status not stripped")
	}
	if _, ok := out.Children[0].Attr(xmldb.AttrStatus); ok {
		t.Fatal("child status not stripped")
	}
	if _, ok := out.Attr(xmldb.AttrTimestamp); !ok {
		t.Fatal("timestamp should be kept")
	}
	// Original untouched.
	if _, ok := n.Attr(xmldb.AttrStatus); !ok {
		t.Fatal("StripInternal mutated its input")
	}
}

// --- property-based tests ---

// randomParkingDoc builds a random parking-style hierarchy.
func randomParkingDoc(r *rand.Rand) *xmldb.Node {
	root := xmldb.NewElem("usRegion", "NE")
	nCities := 1 + r.Intn(3)
	for c := 0; c < nCities; c++ {
		city := root.AddChild(xmldb.NewElem("city", string(rune('A'+c))))
		nBlocks := r.Intn(4)
		for b := 0; b < nBlocks; b++ {
			blk := city.AddChild(xmldb.NewElem("block", string(rune('0'+b))))
			blk.SetAttr("meter", []string{"2h", "4h"}[r.Intn(2)])
			nSpots := r.Intn(3)
			for sp := 0; sp < nSpots; sp++ {
				spot := blk.AddChild(xmldb.NewElem("spot", string(rune('0'+sp))))
				av := spot.AddChild(xmldb.NewNode("available"))
				av.Text = []string{"yes", "no"}[r.Intn(2)]
			}
		}
		if r.Intn(2) == 0 {
			stats := city.AddChild(xmldb.NewNode("stats"))
			stats.Text = "x"
		}
	}
	return root
}

// randomAssignment assigns each IDable node to one of nSites sites.
func randomAssignment(r *rand.Rand, d *xmldb.Node, nSites int) *Assignment {
	a := NewAssignment("site0")
	var walk func(n *xmldb.Node, p xmldb.IDPath)
	walk = func(n *xmldb.Node, p xmldb.IDPath) {
		if r.Intn(2) == 0 {
			a.Assign(p, siteName(r.Intn(nSites)))
		}
		for _, c := range n.Children {
			if c.ID() != "" {
				walk(c, p.Child(c.Name, c.ID()))
			}
		}
	}
	walk(d, xmldb.IDPath{{Name: d.Name, ID: d.ID()}})
	return a
}

func siteName(i int) string { return "site" + string(rune('0'+i)) }

func TestPropertyPartitionInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomParkingDoc(r)
		a := randomAssignment(r, d, 3)
		stores, owned, err := Partition(d, a)
		if err != nil {
			t.Logf("seed %d: partition error: %v", seed, err)
			return false
		}
		for site, s := range stores {
			if errs := CheckInvariants(s, d, owned[site], true); len(errs) > 0 {
				t.Logf("seed %d site %s: %v", seed, site, errs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPartitionCoversEveryNode(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomParkingDoc(r)
		a := randomAssignment(r, d, 3)
		_, owned, err := Partition(d, a)
		if err != nil {
			return false
		}
		// Each IDable node owned exactly once.
		counts := map[string]int{}
		for _, paths := range owned {
			for _, p := range paths {
				counts[p.Key()]++
			}
		}
		total := 0
		var walk func(n *xmldb.Node, p xmldb.IDPath) bool
		walk = func(n *xmldb.Node, p xmldb.IDPath) bool {
			total++
			if counts[p.Key()] != 1 {
				t.Logf("seed %d: node %s owned %d times", seed, p, counts[p.Key()])
				return false
			}
			for _, c := range n.Children {
				if c.ID() != "" && !walk(c, p.Child(c.Name, c.ID())) {
					return false
				}
			}
			return true
		}
		if !walk(d, xmldb.IDPath{{Name: d.Name, ID: d.ID()}}) {
			return false
		}
		return total == len(counts)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMergeIdempotent(t *testing.T) {
	// Merging the same valid fragment twice gives the same store as once.
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomParkingDoc(r)
		a := randomAssignment(r, d, 2)
		stores, _, err := Partition(d, a)
		if err != nil {
			return false
		}
		// Use one site's store contents as a merge fragment into a fresh store.
		var anySite *Store
		for _, s := range stores {
			anySite = s
			break
		}
		frag := anySite.Root.Clone()
		normalizeOwnedToComplete(frag)
		s1 := NewStore(d.Name, d.ID())
		if err := s1.MergeFragment(frag); err != nil {
			t.Logf("seed %d: first merge: %v", seed, err)
			return false
		}
		once := s1.Root.Canonical()
		if err := s1.MergeFragment(frag); err != nil {
			t.Logf("seed %d: second merge: %v", seed, err)
			return false
		}
		return s1.Root.Canonical() == once
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// normalizeOwnedToComplete rewrites owned statuses to complete, as QEG does
// when shipping answer fragments between sites.
func normalizeOwnedToComplete(n *xmldb.Node) {
	n.Walk(func(x *xmldb.Node) bool {
		if StatusOf(x) == StatusOwned {
			SetStatus(x, StatusComplete)
		}
		return true
	})
}

func TestPropertyEvictionMaintainsInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomParkingDoc(r)
		a := randomAssignment(r, d, 2)
		stores, owned, err := Partition(d, a)
		if err != nil {
			return false
		}
		// Cross-pollinate: merge site A's fragment into site B, then evict
		// random cached nodes from B and re-check invariants.
		sites := a.Sites()
		if len(sites) < 2 {
			return true
		}
		src, dst := stores[sites[0]], stores[sites[1]]
		frag := src.Root.Clone()
		normalizeOwnedToComplete(frag)
		if err := dst.MergeFragment(frag); err != nil {
			return false
		}
		// Evict every cached (complete) node one at a time.
		var cached []xmldb.IDPath
		var walk func(n *xmldb.Node, p xmldb.IDPath)
		walk = func(n *xmldb.Node, p xmldb.IDPath) {
			if StatusOf(n) == StatusComplete && n.Parent != nil {
				cached = append(cached, p)
			}
			for _, c := range n.Children {
				if c.ID() != "" {
					walk(c, p.Child(c.Name, c.ID()))
				}
			}
		}
		walk(dst.Root, xmldb.IDPath{{Name: dst.Root.Name, ID: dst.Root.ID()}})
		for _, p := range cached {
			if r.Intn(2) == 0 {
				if err := dst.EvictLocalInfo(p); err != nil {
					t.Logf("seed %d: evict %s: %v", seed, p, err)
					return false
				}
			}
		}
		if errs := CheckInvariants(dst, d, owned[sites[1]], false); len(errs) > 0 {
			t.Logf("seed %d: post-evict invariants: %v", seed, errs)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCloneAndSize(t *testing.T) {
	d := doc(t)
	a := NewAssignment("s1")
	stores, _, err := Partition(d, a)
	if err != nil {
		t.Fatal(err)
	}
	s := stores["s1"]
	cl := s.Clone()
	if cl.Size() != s.Size() {
		t.Fatal("clone size differs")
	}
	cl.Root.SetAttr("x", "y")
	if _, ok := s.Root.Attr("x"); ok {
		t.Fatal("clone aliases original")
	}
}
