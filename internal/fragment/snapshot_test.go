package fragment

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// buildDoc makes a small reference document:
// root -> city{a,b} -> block{1,2} -> space{1,2} with an <available> field.
func buildDoc() *xmldb.Node {
	doc := xmldb.NewElem("usRegion", "NE")
	for _, city := range []string{"a", "b"} {
		c := doc.AddChild(xmldb.NewElem("city", city))
		for _, blk := range []string{"1", "2"} {
			b := c.AddChild(xmldb.NewElem("block", blk))
			for _, sp := range []string{"1", "2"} {
				n := b.AddChild(xmldb.NewElem("parkingSpace", sp))
				av := n.AddChild(xmldb.NewNode("available"))
				av.Text = "yes"
			}
		}
	}
	return doc
}

func buildStore(t *testing.T) (*Store, []xmldb.IDPath) {
	t.Helper()
	stores, owned, err := Partition(buildDoc(), NewAssignment("solo"))
	if err != nil {
		t.Fatal(err)
	}
	return stores["solo"], owned["solo"]
}

// localIDInfoStub builds a local-info fragment: <name id=..> with IDable
// child stubs.
func localIDInfoStub(name, id, childName string, childIDs ...string) *xmldb.Node {
	n := xmldb.NewElem(name, id)
	for _, cid := range childIDs {
		n.AddChild(xmldb.NewElem(childName, cid))
	}
	return n
}

func spath(parts ...string) xmldb.IDPath {
	p := xmldb.IDPath{{Name: "usRegion", ID: "NE"}}
	for i := 0; i+1 < len(parts); i += 2 {
		p = p.Child(parts[i], parts[i+1])
	}
	return p
}

func TestCOWApplyUpdateSharesSiblings(t *testing.T) {
	base, _ := buildStore(t)
	base.Seal()
	target := spath("city", "a", "block", "1", "parkingSpace", "1")

	w := base.Begin()
	if err := w.ApplyUpdate(target, map[string]string{"available": "no"}, map[string]string{"meter": "broken"}, 42); err != nil {
		t.Fatal(err)
	}
	next := w.Commit()

	// The old version is untouched.
	oldN := base.NodeAt(target)
	if got := oldN.ChildNamed("available").Text; got != "yes" {
		t.Fatalf("base mutated: available = %q", got)
	}
	if _, ok := oldN.Attr("meter"); ok {
		t.Fatal("base mutated: meter attribute appeared")
	}
	// The new version has the update, with the timestamp.
	newN := next.NodeAt(target)
	if got := newN.ChildNamed("available").Text; got != "no" {
		t.Fatalf("new version: available = %q", got)
	}
	if ts, ok := Timestamp(newN); !ok || ts != 42 {
		t.Fatalf("new version timestamp = %v, %v", ts, ok)
	}
	// Sibling subtrees are shared structurally (same pointers)...
	sib := spath("city", "a", "block", "1", "parkingSpace", "2")
	if base.NodeAt(sib) != next.NodeAt(sib) {
		t.Fatal("untouched sibling subtree was copied, not shared")
	}
	other := spath("city", "b")
	if base.NodeAt(other) != next.NodeAt(other) {
		t.Fatal("untouched city subtree was copied, not shared")
	}
	// ...while the spine down to the touched node is fresh.
	for i := 1; i <= len(target); i++ {
		p := target[:i]
		if base.NodeAt(p) == next.NodeAt(p) {
			t.Fatalf("spine node %s is shared; must be path-copied", xmldb.IDPath(p))
		}
	}
	// Node-count accounting survived the transaction.
	if got, want := next.Size(), next.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}
	if base.Size() != base.Root.CountNodes() {
		t.Fatal("base count drifted")
	}
}

func TestCOWSequentialWritersKeepBothChanges(t *testing.T) {
	v0, _ := buildStore(t)
	v0.Seal()
	p1 := spath("city", "a", "block", "1", "parkingSpace", "1")
	p2 := spath("city", "b", "block", "2", "parkingSpace", "2")

	w1 := v0.Begin()
	if err := w1.ApplyUpdate(p1, map[string]string{"available": "u1"}, nil, 1); err != nil {
		t.Fatal(err)
	}
	v1 := w1.Commit()
	w2 := v1.Begin()
	if err := w2.ApplyUpdate(p2, map[string]string{"available": "u2"}, nil, 2); err != nil {
		t.Fatal(err)
	}
	v2 := w2.Commit()

	if got := v2.NodeAt(p1).ChildNamed("available").Text; got != "u1" {
		t.Fatalf("writer 2 lost writer 1's update: %q", got)
	}
	if got := v2.NodeAt(p2).ChildNamed("available").Text; got != "u2" {
		t.Fatalf("second update missing: %q", got)
	}
}

// TestCOWMergeMatchesMutableMerge runs seeded random sequences of merges
// of fragments cut from PaperSmall and of evictions through both modes of
// the tree editor: in place on a mutable store, and as one copy-on-write
// transaction per step on a sealed twin. The fragments cover one
// neighborhood, so units are merged again and again, and the site owns one
// of its blocks, so merges also land on owned data. After every step the
// two trees are equal, both stores' node and cached-byte counts match a
// fresh walk, the mutable tree's parent pointers are whole, and no node the
// transaction made points to a parent.
func TestCOWMergeMatchesMutableMerge(t *testing.T) {
	db := workload.Build(workload.PaperSmall())
	solo, _, err := Partition(db.Doc, NewAssignment("solo"))
	if err != nil {
		t.Fatal(err)
	}
	source := solo["solo"].Seal()
	assign := NewAssignment("root")
	assign.Assign(db.BlockPath(0, 0, 0), "site")
	stores, _, err := Partition(db.Doc, assign)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		mut := stores["site"].Clone()
		cur := stores["site"].Clone().Seal()
		// Known byte counts are maintained by every edit from here on.
		mut.CachedBytes()
		cur.CachedBytes()
		var merged []xmldb.IDPath
		for step := 0; step < 200; step++ {
			var errMut, errCOW error
			w := cur.Begin()
			if len(merged) == 0 || r.Intn(3) > 0 {
				frag, p := cutFragment(t, r, db, source)
				merged = append(merged, p)
				errMut, errCOW = mut.MergeFragment(frag), w.MergeFragment(frag)
			} else {
				p := merged[r.Intn(len(merged))]
				if r.Intn(4) == 0 {
					p = p.Parent() // often id-complete or owned: refused
				}
				errMut, errCOW = mut.EvictLocalInfo(p), w.EvictLocalInfo(p)
			}
			if (errMut == nil) != (errCOW == nil) {
				t.Fatalf("seed %d step %d: mutable error %v, COW error %v", seed, step, errMut, errCOW)
			}
			for n := range w.fresh {
				if n.Parent != nil {
					t.Fatalf("seed %d step %d: node <%s id=%q> made by the transaction has a parent pointer", seed, step, n.Name, n.ID())
				}
			}
			cur = w.Commit()
			if !xmldb.Equal(mut.Root, cur.Root) {
				t.Fatalf("seed %d step %d: COW tree differs from mutable tree", seed, step)
			}
			for name, s := range map[string]*Store{"mutable": mut, "COW": cur} {
				if got, want := s.Size(), s.Root.CountNodes(); got != want {
					t.Fatalf("seed %d step %d: %s Size() = %d, walk = %d", seed, step, name, got, want)
				}
				if got, want := s.CachedBytes(), cachedBytesIn(s.Root); got != want {
					t.Fatalf("seed %d step %d: %s CachedBytes() = %d, walk = %d", seed, step, name, got, want)
				}
			}
			mut.Root.Walk(func(n *xmldb.Node) bool {
				for _, c := range n.Children {
					if c.Parent != n {
						t.Fatalf("seed %d step %d: <%s id=%q> has the wrong parent", seed, step, c.Name, c.ID())
					}
				}
				return true
			})
		}
	}
}

// cutFragment returns the answer fragment for a random block or parking
// space of PaperSmall's first neighborhood, and its path: the local ID
// information of every
// ancestor, then the subtree complete. Each complete unit gets a random
// timestamp, so copies arrive both fresher and staler than what a store
// holds; some get a changed value or a nested non-IDable field, and some
// list one IDable child fewer.
func cutFragment(t *testing.T, r *rand.Rand, db *workload.DB, source *Store) (*xmldb.Node, xmldb.IDPath) {
	t.Helper()
	p := db.BlockPath(0, 0, r.Intn(db.Cfg.Blocks))
	if r.Intn(2) == 0 {
		p = p.Child("parkingSpace", fmt.Sprint(1+r.Intn(db.Cfg.Spaces)))
	}
	ans, err := BuildSync(source, p)
	if err != nil {
		t.Fatal(err)
	}
	ans.Root.Walk(func(n *xmldb.Node) bool {
		if StatusOf(n) != StatusComplete {
			return true
		}
		SetTimestamp(n, float64(r.Intn(50)))
		if f := n.ChildNamed("available"); f != nil && r.Intn(2) == 0 {
			f.Text = fmt.Sprint(r.Intn(9))
		}
		if r.Intn(4) == 0 {
			n.AddChild(xmldb.NewNode("note")).AddChild(xmldb.NewNode("by")).Text = fmt.Sprint(r.Intn(9))
		}
		if ids := n.IDableChildren(); len(ids) > 0 && r.Intn(8) == 0 {
			n.RemoveChild(ids[len(ids)-1])
		}
		return true
	})
	return ans.Root, p
}

func TestCOWMergeValidationLeavesVersionClean(t *testing.T) {
	base, _ := buildStore(t)
	base.Seal()
	bad := xmldb.NewElem("usRegion", "NE")
	SetStatus(bad, StatusIncomplete)
	bad.AddChild(xmldb.NewElem("city", "a")) // incomplete node with children: C1/C2 violation

	w := base.Begin()
	if err := w.MergeFragment(bad); err == nil {
		t.Fatal("invalid fragment accepted")
	}
	next := w.Commit()
	if !xmldb.Equal(base.Root, next.Root) {
		t.Fatal("rejected merge dirtied the new version")
	}
}

func TestCOWEvictions(t *testing.T) {
	base, _ := buildStore(t)
	// Downgrade one space to complete (cached) so it is evictable.
	p := spath("city", "b", "block", "1", "parkingSpace", "2")
	SetStatus(base.NodeAt(p), StatusComplete)
	base.Seal()

	w := base.Begin()
	if err := w.EvictLocalInfo(p); err != nil {
		t.Fatal(err)
	}
	next := w.Commit()
	if got := StatusOf(next.NodeAt(p)); got != StatusIDComplete {
		t.Fatalf("evicted node status = %v", got)
	}
	if StatusOf(base.NodeAt(p)) != StatusComplete {
		t.Fatal("eviction leaked into the base version")
	}
	if got, want := next.Size(), next.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}

}

func TestSealedStorePanicsOnMutation(t *testing.T) {
	s, _ := buildStore(t)
	s.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a sealed store did not panic")
		}
	}()
	_ = s.MergeFragment(xmldb.NewElem("usRegion", "NE"))
}

func TestSizeAccountingAcrossMutators(t *testing.T) {
	s := NewStore("usRegion", "NE")
	check := func(step string) {
		t.Helper()
		if got, want := s.Size(), s.Root.CountNodes(); got != want {
			t.Fatalf("%s: Size() = %d, walk = %d", step, got, want)
		}
	}
	check("new")
	if err := s.InstallLocalIDInfo(spath(), localIDInfoStub("usRegion", "NE", "city", "a", "b")); err != nil {
		t.Fatal(err)
	}
	check("install-root-id-info")
	info := localIDInfoStub("city", "a", "block", "1")
	extra := info.AddChild(xmldb.NewNode("note"))
	extra.AddChild(xmldb.NewNode("deep"))
	if err := s.InstallLocalInfo(spath("city", "a"), info, StatusComplete); err != nil {
		t.Fatal(err)
	}
	check("install-local-info")
	// Reinstall with fewer children: the note subtree and block stub go away.
	if err := s.InstallLocalInfo(spath("city", "a"), localIDInfoStub("city", "a", "block", "2"), StatusComplete); err != nil {
		t.Fatal(err)
	}
	check("reinstall-local-info")
	if err := s.MarkUnreachable(spath("city", "b", "block", "3")); err != nil {
		t.Fatal(err)
	}
	check("mark-unreachable")
	if err := s.EvictLocalInfo(spath("city", "a")); err != nil {
		t.Fatal(err)
	}
	check("evict-local-info")
}

func TestCloneCarriesCount(t *testing.T) {
	s, _ := buildStore(t)
	want := s.Root.CountNodes()
	if got := s.Clone().Size(); got != want {
		t.Fatalf("clone Size() = %d, want %d", got, want)
	}
	// A literal store (count unknown) lazily computes and caches.
	lit := &Store{Root: s.Root.Clone()}
	if got := lit.Size(); got != want {
		t.Fatalf("literal Size() = %d, want %d", got, want)
	}
}

func TestCOWStressManyVersions(t *testing.T) {
	v, vOwned := buildStore(t)
	v.Seal()
	targets := []xmldb.IDPath{
		spath("city", "a", "block", "1", "parkingSpace", "1"),
		spath("city", "a", "block", "2", "parkingSpace", "2"),
		spath("city", "b", "block", "1", "parkingSpace", "2"),
	}
	for i := 0; i < 200; i++ {
		w := v.Begin()
		p := targets[i%len(targets)]
		if err := w.ApplyUpdate(p, map[string]string{"available": fmt.Sprint(i)}, nil, float64(i)); err != nil {
			t.Fatal(err)
		}
		v = w.Commit()
	}
	// The final version holds the last value written to each target.
	last := map[string]int{}
	for i := 0; i < 200; i++ {
		last[targets[i%len(targets)].Key()] = i
	}
	for _, p := range targets {
		if got := v.NodeAt(p).ChildNamed("available").Text; got != fmt.Sprint(last[p.Key()]) {
			t.Fatalf("%s = %q, want %d", p, got, last[p.Key()])
		}
	}
	if got, want := v.Size(), v.Root.CountNodes(); got != want {
		t.Fatalf("Size() = %d, walk = %d", got, want)
	}
	if errs := CheckInvariants(v, buildDoc(), vOwned, false); len(errs) > 0 {
		t.Fatalf("invariants after 200 versions: %v", errs)
	}
}

// heapAfterGC returns the live heap once everything unreachable is gone.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestVersionsDoNotPinPredecessors commits tens of thousands of versions on
// top of a base version that stays referenced, and requires the live heap
// to end where it started: a superseded version must be collectable as soon
// as nobody holds it, even while its successors still share most of its
// nodes. With parent pointers in shared nodes every version reached every
// earlier one, and 20,000 updates of this document left 28 MiB behind.
func TestVersionsDoNotPinPredecessors(t *testing.T) {
	db := workload.Build(workload.PaperSmall())
	stores, _, err := Partition(db.Doc, NewAssignment("solo"))
	if err != nil {
		t.Fatal(err)
	}
	const slack = 2 << 20
	r := rand.New(rand.NewSource(1))

	t.Run("updates", func(t *testing.T) {
		base := stores["solo"].Clone().Seal()
		cur := base
		before := heapAfterGC()
		for i := 0; i < 20000; i++ {
			w := cur.Begin()
			p := db.SpacePaths[r.Intn(len(db.SpacePaths))]
			avail := []string{"yes", "no"}[r.Intn(2)]
			if err := w.ApplyUpdate(p, map[string]string{"available": avail}, nil, float64(i)); err != nil {
				t.Fatal(err)
			}
			cur = w.Commit()
		}
		if grew := heapAfterGC() - before; grew > slack {
			t.Fatalf("live heap grew by %d bytes over 20000 update commits", grew)
		}
		runtime.KeepAlive(base)
		runtime.KeepAlive(cur)
	})

	t.Run("merge and evict", func(t *testing.T) {
		// A site that caches the whole document, then evicts and re-fetches
		// one parking space per cycle.
		cached := stores["solo"].Root.Clone()
		normalizeOwnedToComplete(cached)
		base := RestoreStore(cached).Seal()
		cur := base
		before := heapAfterGC()
		for i := 0; i < 5000; i++ {
			p := db.SpacePaths[r.Intn(len(db.SpacePaths))]
			w := cur.Begin()
			if err := w.EvictLocalInfo(p); err != nil {
				t.Fatal(err)
			}
			cur = w.Commit()
			w = cur.Begin()
			if err := w.MergeFragment(answerFor(db.Doc, p)); err != nil {
				t.Fatal(err)
			}
			cur = w.Commit()
		}
		if errs := CheckInvariants(cur, db.Doc, nil, true); len(errs) > 0 {
			t.Fatalf("after the cycles: %v", errs[0])
		}
		if grew := heapAfterGC() - before; grew > slack {
			t.Fatalf("live heap grew by %d bytes over 10000 merge and evict commits", grew)
		}
		runtime.KeepAlive(base)
		runtime.KeepAlive(cur)
	})
}

// answerFor builds the fragment an owner would answer with for the node at
// p: id-complete ancestors down to a complete copy of the node.
func answerFor(doc *xmldb.Node, p xmldb.IDPath) *xmldb.Node {
	root := xmldb.NewElem(p[0].Name, p[0].ID)
	cur := root
	for _, st := range p[1 : len(p)-1] {
		SetStatus(cur, StatusIDComplete)
		cur = cur.AddChild(xmldb.NewElem(st.Name, st.ID))
	}
	SetStatus(cur, StatusIDComplete)
	leaf := cur.AddChild(xmldb.FindByIDPath(doc, p).Clone())
	SetStatus(leaf, StatusComplete)
	return root
}

// TestCheckInvariantsReadsTheVersionItIsGiven plants an I2 violation below a
// copied spine node: block 1 of city a is downgraded to a bare stub while
// its parking spaces, shared with the previous version, stay under it. The
// check must report it on the sealed version itself. When it took a node's
// parent from the node, the shared spaces answered with the previous
// version's block, which still had its ID information, and only a Clone of
// the version showed the violation.
func TestCheckInvariantsReadsTheVersionItIsGiven(t *testing.T) {
	base, owned := buildStore(t)
	base.Seal()
	if errs := CheckInvariants(base, buildDoc(), owned, true); len(errs) > 0 {
		t.Fatalf("base: %v", errs)
	}
	w := base.Begin()
	if err := w.SetStatusAt(spath("city", "a", "block", "1"), StatusIncomplete); err != nil {
		t.Fatal(err)
	}
	next := w.Commit()
	for name, s := range map[string]*Store{"sealed version": next, "its clone": next.Clone()} {
		found := false
		for _, err := range CheckInvariants(s, buildDoc(), nil, false) {
			if strings.HasPrefix(err.Error(), "I2: node /usRegion[@id=\"NE\"]/city[@id=\"a\"]/block[@id=\"1\"]/parkingSpace") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: the I2 violation under block 1 was not reported", name)
		}
	}
}
