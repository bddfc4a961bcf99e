package fragment

import (
	"fmt"
	"testing"

	"irisnet/internal/xmldb"
)

// replicaOf seeds a fresh store from a sync fragment of snap, as a new
// replica does before its delta stream starts.
func replicaOf(t testing.TB, snap *Store, root xmldb.IDPath) *Store {
	t.Helper()
	sync, err := BuildSync(snap, root)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := xmldb.ParseString(sync.Root.StringSized(sync.Size()))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewStore(snap.Root.Name, snap.Root.ID())
	if err := rep.MergeFragment(wire); err != nil {
		t.Fatal(err)
	}
	return rep.Seal()
}

func TestBuildSyncSeedsReplica(t *testing.T) {
	base, owned := buildStore(t)
	// Give the data timestamps and owned status, like a live site store.
	for _, p := range owned {
		if err := base.InstallLocalInfo(p, base.NodeAt(p), StatusOwned); err != nil {
			t.Fatal(err)
		}
		SetTimestamp(base.NodeAt(p), 100)
	}
	base.Seal()

	root := spath("city", "a")
	rep := replicaOf(t, base, root)
	// Every node under the sync root is a complete cached copy carrying
	// the owner's timestamp; nothing is owned.
	n := rep.NodeAt(spath("city", "a", "block", "1", "parkingSpace", "1"))
	if n == nil {
		t.Fatal("replica missing synced node")
	}
	if st := StatusOf(n); st != StatusComplete {
		t.Fatalf("replica node status = %v, want complete", st)
	}
	if ts, ok := Timestamp(n); !ok || ts != 100 {
		t.Fatalf("replica node ts = %v, %v", ts, ok)
	}
	if n.ChildNamed("available") == nil || n.ChildNamed("available").Text != "yes" {
		t.Fatal("replica node lost its field child")
	}
	// The other city stays a bare spine: the sync covered only city a.
	if other := rep.NodeAt(spath("city", "b", "block", "1")); other != nil && StatusOf(other).HasLocalInfo() {
		t.Fatal("sync leaked data outside its root")
	}
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

// BenchmarkReplicaApplyDelta measures the replica-side apply path — parse,
// COW merge, commit — for a batch of deltas against a realistic store, the
// per-batch cost that bounds sustainable replication throughput.
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

	// One batch: 16 block updates committed by the owner under the
	// replicated city, encoded as a single delta fragment.
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
