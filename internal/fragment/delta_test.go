package fragment

import (
	"fmt"
	"testing"

	"irisnet/internal/xmldb"
)

// subtreeDelta is BuildDelta over every node at or below root in snap. When
// snap holds local information for the whole subtree, as an owner's store
// does, it is the subtree's answer fragment: ancestors' local ID information,
// then every unit complete.
func subtreeDelta(tb testing.TB, snap *Store, root xmldb.IDPath) *Store {
	tb.Helper()
	var paths []xmldb.IDPath
	var walk func(n *xmldb.Node, p xmldb.IDPath)
	walk = func(n *xmldb.Node, p xmldb.IDPath) {
		paths = append(paths, p)
		for _, c := range n.IDableChildren() {
			walk(c, p.Child(c.Name, c.ID()))
		}
	}
	walk(snap.NodeAt(root), root)
	frag, err := BuildDelta(snap, paths)
	if err != nil {
		tb.Fatal(err)
	}
	return frag
}

// replicaOf seeds a fresh store with the subtree delta of root in snap,
// merged the way a new owner merges its transfer fragment.
func replicaOf(t testing.TB, snap *Store, root xmldb.IDPath) *Store {
	t.Helper()
	seed := subtreeDelta(t, snap, root)
	wire, err := xmldb.ParseString(seed.Root.StringSized(seed.Size()))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewStore(snap.Root.Name, snap.Root.ID())
	if err := rep.MergeFragment(wire); err != nil {
		t.Fatal(err)
	}
	return rep.Seal()
}

func TestBuildDeltaRoundTrip(t *testing.T) {
	base, owned := buildStore(t)
	for _, p := range owned {
		if err := base.InstallLocalInfo(p, base.NodeAt(p), StatusOwned); err != nil {
			t.Fatal(err)
		}
		SetTimestamp(base.NodeAt(p), 100)
	}
	base.Seal()
	root := spath("city", "a")
	rep := replicaOf(t, base, root)

	// Owner commits an update.
	target := spath("city", "a", "block", "1", "parkingSpace", "2")
	w := base.Begin()
	if err := w.ApplyUpdate(target, map[string]string{"available": "no"}, nil, 150); err != nil {
		t.Fatal(err)
	}
	next := w.Commit()

	// Encode the committed change, ship it, merge it on the replica.
	delta, err := BuildDelta(next, []xmldb.IDPath{target})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := xmldb.ParseString(delta.Root.StringSized(delta.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFragment(wire); err != nil {
		t.Fatalf("delta fragment violates C1/C2: %v", err)
	}
	rw := rep.Begin()
	if err := rw.MergeFragment(wire); err != nil {
		t.Fatal(err)
	}
	rep = rw.Commit()

	n := rep.NodeAt(target)
	if n.ChildNamed("available").Text != "no" {
		t.Fatalf("replica field = %q, want no", n.ChildNamed("available").Text)
	}
	if ts, _ := Timestamp(n); ts != 150 {
		t.Fatalf("replica ts = %v, want 150", ts)
	}
	// Redelivery (same delta) and an older delta are both no-ops: the
	// stale-timestamp guard keeps the replica monotone.
	old, err := BuildDelta(base, []xmldb.IDPath{target})
	if err != nil {
		t.Fatal(err)
	}
	oldWire, err := xmldb.ParseString(old.Root.StringSized(old.Size()))
	if err != nil {
		t.Fatal(err)
	}
	rw = rep.Begin()
	if err := rw.MergeFragment(oldWire); err != nil {
		t.Fatal(err)
	}
	if err := rw.MergeFragment(wire); err != nil {
		t.Fatal(err)
	}
	rep = rw.Commit()
	n = rep.NodeAt(target)
	if n.ChildNamed("available").Text != "no" {
		t.Fatal("stale delta moved the replica backwards in time")
	}
	if ts, _ := Timestamp(n); ts != 150 {
		t.Fatalf("replica ts after redelivery = %v, want 150", ts)
	}
}

func TestBuildDeltaSkipsDepartedNodes(t *testing.T) {
	base, owned := buildStore(t)
	for _, p := range owned {
		if err := base.InstallLocalInfo(p, base.NodeAt(p), StatusOwned); err != nil {
			t.Fatal(err)
		}
	}
	base.Seal()
	gone := xmldb.IDPath{{Name: "usRegion", ID: "NE"}, {Name: "city", ID: "z"}, {Name: "block", ID: "9"}}
	delta, err := BuildDelta(base, []xmldb.IDPath{gone})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Size() > 1 {
		t.Fatalf("delta for a departed node has %d nodes, want just the root", delta.Size())
	}
}

// BenchmarkReplicaApplyDelta measures applying one BuildDelta fragment —
// parse, COW merge, commit — to a realistic store: the path a take (an
// ownership transfer's receiving end) runs on its transfer fragment.
func BenchmarkReplicaApplyDelta(b *testing.B) {
	doc := xmldb.NewElem("usRegion", "NE")
	for c := 0; c < 4; c++ {
		city := doc.AddChild(xmldb.NewElem("city", fmt.Sprintf("c%d", c)))
		for n := 0; n < 4; n++ {
			nb := city.AddChild(xmldb.NewElem("neighborhood", fmt.Sprintf("n%d", n)))
			for k := 0; k < 16; k++ {
				blk := nb.AddChild(xmldb.NewElem("block", fmt.Sprintf("%d", k)))
				av := blk.AddChild(xmldb.NewNode("available"))
				av.Text = "yes"
			}
		}
	}
	stores, owned, err := Partition(doc, NewAssignment("solo"))
	if err != nil {
		b.Fatal(err)
	}
	base, paths := stores["solo"], owned["solo"]
	for _, p := range paths {
		if err := base.InstallLocalInfo(p, base.NodeAt(p), StatusOwned); err != nil {
			b.Fatal(err)
		}
		SetTimestamp(base.NodeAt(p), 100)
	}
	base.Seal()
	root := xmldb.IDPath{{Name: "usRegion", ID: "NE"}, {Name: "city", ID: "c0"}}
	rep := replicaOf(b, base, root)

	// One batch: 16 block updates committed by the owner under the seeded
	// city, encoded as a single delta fragment.
	var batch []xmldb.IDPath
	for k := 0; k < 16; k++ {
		batch = append(batch, xmldb.IDPath{
			{Name: "usRegion", ID: "NE"},
			{Name: "city", ID: "c0"},
			{Name: "neighborhood", ID: "n1"},
			{Name: "block", ID: fmt.Sprintf("%d", k)},
		})
	}
	w := base.Begin()
	for i, p := range batch {
		if err := w.ApplyUpdate(p, map[string]string{"available": "no"}, nil, float64(200+i)); err != nil {
			b.Fatal(err)
		}
	}
	next := w.Commit()
	delta, err := BuildDelta(next, batch)
	if err != nil {
		b.Fatal(err)
	}
	wireStr := delta.Root.StringSized(delta.Size())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := xmldb.ParseString(wireStr)
		if err != nil {
			b.Fatal(err)
		}
		rw := rep.Begin()
		if err := rw.MergeFragment(wire); err != nil {
			b.Fatal(err)
		}
		rep = rw.Commit()
	}
}
