package fragment

import (
	"fmt"
	"testing"

	"irisnet/internal/xmldb"
)

// checkAccounting verifies the incrementally maintained cached-bytes
// counter against a from-scratch walk of the same tree.
func checkAccounting(t *testing.T, s *Store, label string) {
	t.Helper()
	got := s.CachedBytes()
	want := cachedBytesIn(s.Root)
	if got != want {
		t.Fatalf("%s: incremental CachedBytes=%d, recomputed=%d", label, got, want)
	}
}

// buildInfo returns a local-information unit for <name id=...> with a few
// non-IDable fields and the given IDable child stubs.
func buildInfo(name, id string, fields int, stubs ...[2]string) *xmldb.Node {
	info := xmldb.NewElem(name, id)
	for i := 0; i < fields; i++ {
		f := info.AddChild(xmldb.NewNode(fmt.Sprintf("field%d", i)))
		f.Text = fmt.Sprintf("value-%s-%d", id, i)
	}
	for _, s := range stubs {
		info.AddChild(xmldb.NewElem(s[0], s[1]))
	}
	return info
}

func mustPath(t *testing.T, s string) xmldb.IDPath {
	t.Helper()
	p, err := xmldb.ParseIDPath(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCachedBytesIncrementalStore(t *testing.T) {
	s := NewStore("root", "R")
	if s.CachedBytes() != 0 {
		t.Fatalf("empty store CachedBytes=%d, want 0", s.CachedBytes())
	}

	rootP := mustPath(t, "/root[@id='R']")
	aP := mustPath(t, "/root[@id='R']/a[@id='1']")
	bP := mustPath(t, "/root[@id='R']/a[@id='1']/b[@id='2']")

	if err := s.InstallLocalInfo(rootP, buildInfo("root", "R", 1, [2]string{"a", "1"}), StatusComplete); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s, "install root")
	if s.CachedBytes() == 0 {
		t.Fatal("CachedBytes should be > 0 after caching a unit")
	}

	if err := s.InstallLocalInfo(aP, buildInfo("a", "1", 3, [2]string{"b", "2"}), StatusComplete); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallLocalInfo(bP, buildInfo("b", "2", 2), StatusComplete); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s, "install a, b")

	// Refresh a's unit with a different shape (more fields, no b stub:
	// the richer b subtree is dropped as no-longer-listed).
	if err := s.InstallLocalInfo(aP, buildInfo("a", "1", 5), StatusComplete); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s, "refresh a dropping b")

	if err := s.InstallLocalInfo(aP, buildInfo("a", "1", 2, [2]string{"b", "2"}), StatusComplete); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallLocalInfo(bP, buildInfo("b", "2", 4), StatusComplete); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s, "reinstall a, b")

	if err := s.EvictLocalInfo(bP); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s, "evict b local info")

	if err := s.EvictLocalInfo(aP); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s, "evict a local info")

	if err := s.EvictLocalInfo(rootP); err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, s, "evict root local info")
	if s.CachedBytes() != 0 {
		t.Fatalf("CachedBytes=%d after evicting everything, want 0", s.CachedBytes())
	}
}

func TestCachedBytesIncrementalCOW(t *testing.T) {
	s := NewStore("root", "R")
	rootP := mustPath(t, "/root[@id='R']")
	aP := mustPath(t, "/root[@id='R']/a[@id='1']")
	bP := mustPath(t, "/root[@id='R']/a[@id='1']/b[@id='2']")
	if err := s.InstallLocalInfo(rootP, buildInfo("root", "R", 0, [2]string{"a", "1"}), StatusOwned); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallLocalInfo(aP, buildInfo("a", "1", 2, [2]string{"b", "2"}), StatusComplete); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallLocalInfo(bP, buildInfo("b", "2", 3), StatusComplete); err != nil {
		t.Fatal(err)
	}
	cur := s.Seal()
	checkAccounting(t, cur, "sealed base")

	// Merge a fresher copy of a's unit through the COW path.
	frag := buildInfo("root", "R", 0)
	SetStatus(frag, StatusIDComplete)
	an := frag.AddChild(buildInfo("a", "1", 6, [2]string{"b", "2"}))
	SetStatus(an, StatusComplete)
	SetTimestamp(an, 99)
	for _, c := range an.Children {
		if c.ID() != "" {
			SetStatus(c, StatusIncomplete)
		}
	}
	w := cur.Begin()
	if err := w.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	cur = w.Commit()
	checkAccounting(t, cur, "COW merge refresh")

	// Status flips for migration handoffs in both directions.
	w = cur.Begin()
	if err := w.SetStatusAt(aP, StatusOwned); err != nil {
		t.Fatal(err)
	}
	cur = w.Commit()
	checkAccounting(t, cur, "COW complete->owned")

	w = cur.Begin()
	if err := w.SetStatusAt(aP, StatusComplete); err != nil {
		t.Fatal(err)
	}
	cur = w.Commit()
	checkAccounting(t, cur, "COW owned->complete")

	// Update applied to a cached copy keeps the account in step.
	w = cur.Begin()
	if err := w.ApplyUpdate(bP, map[string]string{"field0": "new-much-longer-value"}, nil, 123); err != nil {
		t.Fatal(err)
	}
	cur = w.Commit()
	checkAccounting(t, cur, "COW update on cached copy")

	// COW evictions.
	w = cur.Begin()
	if err := w.EvictLocalInfo(bP); err != nil {
		t.Fatal(err)
	}
	cur = w.Commit()
	checkAccounting(t, cur, "COW evict local info")

	w = cur.Begin()
	if err := w.EvictLocalInfo(aP); err != nil {
		t.Fatal(err)
	}
	cur = w.Commit()
	checkAccounting(t, cur, "COW evict a local info")
	if cur.CachedBytes() != 0 {
		t.Fatalf("CachedBytes=%d after evicting the only cached units, want 0", cur.CachedBytes())
	}
}

func TestLocalInfoBytesExcludesIDableChildrenAndStatus(t *testing.T) {
	n := buildInfo("a", "1", 2, [2]string{"b", "2"})
	base := LocalInfoBytes(n)
	// Growing an IDable child's subtree must not change the parent's unit.
	for _, c := range n.Children {
		if c.ID() != "" {
			f := c.AddChild(xmldb.NewNode("huge"))
			f.Text = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
		}
	}
	if got := LocalInfoBytes(n); got != base {
		t.Fatalf("unit bytes changed with IDable child subtree: %d != %d", got, base)
	}
	SetStatus(n, StatusComplete)
	if got := LocalInfoBytes(n); got != base {
		t.Fatalf("unit bytes changed with status attribute: %d != %d", got, base)
	}
}
