package fragment

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"irisnet/internal/xmldb"
)

// verifyIndexAgainstTree re-derives every index array from a fresh walk of
// the store's tree and fails on any disagreement.
func verifyIndexAgainstTree(t *testing.T, s *Store) {
	t.Helper()
	ix := s.Index()
	if ix == nil {
		t.Fatal("sealed store returned nil index")
	}
	if int(ix.Len()) != s.Root.CountNodes() {
		t.Fatalf("index Len %d != tree size %d", ix.Len(), s.Root.CountNodes())
	}
	byTag := map[string][]int32{}
	pos := int32(0)
	var walk func(n *xmldb.Node, parent int32, parSkel bool) (end int32, allLocal bool)
	walk = func(n *xmldb.Node, parent int32, parSkel bool) (int32, bool) {
		p := pos
		pos++
		if ix.Node(p) != n {
			t.Fatalf("pos %d: ref mismatch (want <%s id=%q>)", p, n.Name, n.ID())
		}
		if ix.Parent(p) != parent {
			t.Fatalf("pos %d: parent %d, want %d", p, ix.Parent(p), parent)
		}
		tag, ok := ix.Tag(n.Name)
		if !ok || ix.TagOf(p) != tag {
			t.Fatalf("pos %d: tag mapping broken for %q", p, n.Name)
		}
		byTag[n.Name] = append(byTag[n.Name], p)
		idable := p == 0 || n.ID() != ""
		if ix.IDable(p) != idable {
			t.Fatalf("pos %d: IDable=%v, want %v", p, ix.IDable(p), idable)
		}
		skel := idable && parSkel
		if ix.Skel(p) != skel {
			t.Fatalf("pos %d: Skel=%v, want %v", p, ix.Skel(p), skel)
		}
		allLocal := true
		if idable {
			allLocal = StatusOf(n).HasLocalInfo()
		}
		for _, c := range n.Children {
			_, childLocal := walk(c, p, skel)
			allLocal = allLocal && childLocal
		}
		if ix.End(p) != pos {
			t.Fatalf("pos %d: End=%d, want %d", p, ix.End(p), pos)
		}
		if ix.SubtreeLocal(p) != allLocal {
			t.Fatalf("pos %d <%s id=%q>: SubtreeLocal=%v, want %v", p, n.Name, n.ID(), ix.SubtreeLocal(p), allLocal)
		}
		return pos, allLocal
	}
	walk(s.Root, -1, true)
	for name, want := range byTag {
		tag, ok := ix.Tag(name)
		if !ok {
			t.Fatalf("tag %q missing", name)
		}
		got := ix.Range(tag, 0, ix.Len())
		if len(got) != len(want) {
			t.Fatalf("tag %q: %d positions, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tag %q: position list diverges at %d: %d != %d", name, i, got[i], want[i])
			}
		}
	}
}

// buildCachedParkingStore makes a small all-complete store (a caching
// frontend that has fetched everything), so evictions and re-merges are
// all legal moves for the property test.
func buildCachedParkingStore(t *testing.T, blocks, spaces int) (*Store, *xmldb.Node, []xmldb.IDPath) {
	t.Helper()
	doc := xmldb.NewElem("usRegion", "NE")
	var paths []xmldb.IDPath
	city := doc.AddChild(xmldb.NewElem("city", "C"))
	for b := 0; b < blocks; b++ {
		blk := city.AddChild(xmldb.NewElem("block", fmt.Sprintf("%d", b+1)))
		for sp := 0; sp < spaces; sp++ {
			s := blk.AddChild(xmldb.NewElem("parkingSpace", fmt.Sprintf("%d", sp+1)))
			s.AddChild(xmldb.NewNode("available")).Text = "yes"
			s.AddChild(xmldb.NewNode("price")).Text = "25"
			p, _ := xmldb.IDPathOf(s)
			paths = append(paths, p)
		}
		p, _ := xmldb.IDPathOf(blk)
		paths = append(paths, p)
	}
	frag := completeFragmentOf(doc)
	st := NewStore("usRegion", "NE")
	if err := st.MergeFragment(frag); err != nil {
		t.Fatal(err)
	}
	return st.Seal(), doc, paths
}

// completeFragmentOf deep-copies a plain document into C1/C2 answer form:
// every IDable node complete with full local information.
func completeFragmentOf(n *xmldb.Node) *xmldb.Node {
	out := n.CloneShallow()
	SetStatus(out, StatusComplete)
	for _, c := range n.Children {
		var cl *xmldb.Node
		if c.ID() != "" {
			cl = completeFragmentOf(c)
		} else {
			cl = c.Clone()
		}
		cl.Parent = out
		out.Children = append(out.Children, cl)
	}
	return out
}

// TestIndexCOWProperty drives random COW transactions — updates, status
// changes, evictions, re-merges — and checks after every commit that the
// lazily built (or derived) index of the sealed snapshot agrees with a
// fresh walk of its tree, while concurrent readers run range scans over
// older versions.
func TestIndexCOWProperty(t *testing.T) {
	store, doc, paths := buildCachedParkingStore(t, 4, 5)
	refFrag := completeFragmentOf(doc)
	rng := rand.New(rand.NewSource(11))
	var wg sync.WaitGroup
	defer wg.Wait()

	verifyIndexAgainstTree(t, store)
	for round := 0; round < 60; round++ {
		// Force the base index so clean commits exercise the derive path.
		base := store.Index()
		w := store.Begin()
		for op := 0; op < 1+rng.Intn(3); op++ {
			p := paths[rng.Intn(len(paths))]
			switch rng.Intn(5) {
			case 0: // clean: text-only field update
				if p[len(p)-1].Name == "parkingSpace" {
					fields := map[string]string{"available": []string{"yes", "no"}[rng.Intn(2)]}
					if err := w.ApplyUpdate(p, fields, nil, float64(round)); err != nil {
						t.Fatal(err)
					}
				}
			case 1: // dirty: status downgrade/upgrade
				st := []Status{StatusComplete, StatusIncomplete, StatusIDComplete}[rng.Intn(3)]
				_ = w.SetStatusAt(p, st)
			case 2: // dirty: drop a local-information unit
				_ = w.EvictLocalInfo(p)
			case 3: // dirty: drop a whole subtree, leaving an incomplete stub
				if parent, err := w.Touch(p.Parent()); err == nil {
					if c := parent.Child(p[len(p)-1].Name, p[len(p)-1].ID); c != nil {
						w.RemoveChild(parent, c)
						SetStatus(w.AddChild(parent, xmldb.NewElem(c.Name, c.ID())), StatusIncomplete)
					}
				}
			case 4: // dirty or clean: re-merge the reference answer
				if err := w.MergeFragment(refFrag); err != nil {
					t.Fatal(err)
				}
			}
		}
		next := w.Commit()

		// Concurrent readers keep scanning the previous version's index
		// while the new one is verified (exercises lock-free sharing
		// under -race).
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			ix := s.Index()
			for name := range ix.tags {
				tag, _ := ix.Tag(name)
				for _, q := range ix.Range(tag, 0, ix.Len()) {
					if ix.TagOf(q) != tag {
						panic("concurrent reader saw torn index")
					}
				}
			}
		}(store)
		_ = base

		store = next
		verifyIndexAgainstTree(t, store)
	}
}

// TestIndexDerivedOnCleanCommit pins the sharing contract: a commit that
// only rewrites text reuses the base index arrays (deriving a new ref
// table), while a structural commit leaves the next index to be rebuilt.
func TestIndexDerivedOnCleanCommit(t *testing.T) {
	store, _, paths := buildCachedParkingStore(t, 2, 2)
	base := store.Index()

	var spacePath xmldb.IDPath
	for _, p := range paths {
		if p[len(p)-1].Name == "parkingSpace" {
			spacePath = p
			break
		}
	}
	w := store.Begin()
	if err := w.ApplyUpdate(spacePath, map[string]string{"available": "no"}, nil, 1); err != nil {
		t.Fatal(err)
	}
	clean := w.Commit()
	cleanIx := clean.idxs.idx.Load()
	if cleanIx == nil {
		t.Fatal("clean commit did not carry a derived index")
	}
	if &cleanIx.end[0] != &base.end[0] || &cleanIx.tagOf[0] != &base.tagOf[0] {
		t.Fatal("derived index does not share the base arrays")
	}
	verifyIndexAgainstTree(t, clean)

	w = clean.Begin()
	if err := w.EvictLocalInfo(spacePath); err != nil {
		t.Fatal(err)
	}
	dirty := w.Commit()
	if dirty.idxs.idx.Load() != nil {
		t.Fatal("structural commit must not inherit an index")
	}
	verifyIndexAgainstTree(t, dirty)
}

// TestIndexNilOnUnsealed pins that only sealed stores are indexed.
func TestIndexNilOnUnsealed(t *testing.T) {
	s := NewStore("usRegion", "NE")
	if s.Index() != nil {
		t.Fatal("unsealed store must not build an index")
	}
	if s.Seal().Index() == nil {
		t.Fatal("sealed store must build an index")
	}
}
