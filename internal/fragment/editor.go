package fragment

import (
	"fmt"

	"irisnet/internal/xmldb"
)

// One tree editor, two modes (DESIGN.md §9).
//
// Every structural edit of a store is written once, here: merging a C1/C2
// fragment, installing local (ID) information, evicting a unit, and the
// descent that reaches the node an edit writes. The freshest-wins and
// never-clobber-owned rules, the I2 check, and the node and cached-byte
// accounting therefore exist once too. The editor runs in one of two modes:
//
//   - on a mutable store (answer assembly, partitions, replication deltas)
//     it writes the store's own nodes in place;
//   - in a copy-on-write transaction (COW, snapshot.go) it writes the next
//     version of a sealed store, path-copying each node before writing it.
//
// Only two primitives know the mode: child makes a node writable, and attach
// hangs a newly built node into the tree.

// editor writes one store.
type editor struct {
	s *Store
	// fresh is nil on a mutable store. In a transaction it marks the nodes
	// the transaction made, which are safe to write; everything else
	// reachable from s.Root is shared with earlier versions.
	fresh map[*xmldb.Node]bool
	// dirty records whether the edits changed anything the index derives
	// from besides node identity: tree shape (nodes added, removed or
	// reordered), element names, or status attributes. Text and plain
	// attribute edits (the sensor-update hot path) leave it false, and
	// COW.Commit then rebinds the base index instead of discarding it.
	dirty bool
}

// child returns a writable c, a child of the writable node parent. On a
// mutable store that is c itself. In a transaction a shared c is replaced,
// in parent's child list, by a copy that shares c's children.
func (e *editor) child(parent, c *xmldb.Node) *xmldb.Node {
	if e.fresh == nil || e.fresh[c] {
		return c
	}
	cp := cowCopy(c)
	e.fresh[cp] = true
	for i, ch := range parent.Children {
		if ch == c {
			parent.Children[i] = cp
			break
		}
	}
	return cp
}

// attach appends c, a node the caller built (never one of the tree's own),
// to the writable parent's children and returns it. It is the only way a
// node enters a tree. On a mutable store c's Parent is set. In a transaction
// c's subtree loses whatever Parent pointers it was built with and becomes
// fresh: versions hold no parent pointers (snapshot.go). A new node always
// changes the tree shape, so the edit is dirty from here on.
func (e *editor) attach(parent, c *xmldb.Node) *xmldb.Node {
	if e.fresh == nil {
		c.Parent = parent
	} else {
		c.Walk(func(x *xmldb.Node) bool {
			x.Parent = nil
			e.fresh[x] = true
			return true
		})
	}
	e.dirty = true
	parent.Children = append(parent.Children, c)
	return c
}

// stub attaches a new incomplete <name id=id/> under parent.
func (e *editor) stub(parent *xmldb.Node, name, id string) *xmldb.Node {
	n := e.attach(parent, xmldb.NewElem(name, id))
	SetStatus(n, StatusIncomplete)
	e.s.addNodes(1)
	return n
}

// descend walks the spine from the root down to p, making every node on it
// writable, and returns the node at p and its parent (nil for the root). A
// missing node is created as an incomplete stub when create is set, and is
// an error otherwise.
func (e *editor) descend(p xmldb.IDPath, create bool) (n, parent *xmldb.Node, err error) {
	if len(p) == 0 {
		return nil, nil, fmt.Errorf("fragment: empty id path")
	}
	n = e.s.Root
	if n.Name != p[0].Name || (p[0].ID != "" && n.ID() != p[0].ID) {
		return nil, nil, fmt.Errorf("fragment: path %s does not match store root %s[@id=%q]",
			p, n.Name, n.ID())
	}
	for _, st := range p[1:] {
		next := n.Child(st.Name, st.ID)
		switch {
		case next != nil:
			next = e.child(n, next)
		case create:
			next = e.stub(n, st.Name, st.ID)
		default:
			return nil, nil, fmt.Errorf("fragment: %s not present", p)
		}
		parent, n = n, next
	}
	return n, parent, nil
}

// installLocalInfo is Store.InstallLocalInfo.
func (e *editor) installLocalInfo(p xmldb.IDPath, src *xmldb.Node, st Status) error {
	if !st.HasLocalInfo() {
		return fmt.Errorf("fragment: InstallLocalInfo with status %v", st)
	}
	n, parent, err := e.descend(p, true)
	if err != nil {
		return err
	}
	// The document root's children are exempt, as in CheckInvariants.
	if len(p) > 2 && !StatusOf(parent).HasLocalIDInfo() {
		return fmt.Errorf("fragment: I2 violation: parent of %s lacks local ID info", p)
	}
	e.applyLocalInfo(n, src, st)
	return nil
}

// installLocalIDInfo is Store.InstallLocalIDInfo. It checks info before it
// edits, so a rejected call leaves the store unchanged.
func (e *editor) installLocalIDInfo(p xmldb.IDPath, info *xmldb.Node) error {
	for _, c := range info.Children {
		if c.ID() == "" {
			return fmt.Errorf("fragment: local ID info for %s contains non-IDable child <%s>", p, c.Name)
		}
	}
	n, _, err := e.descend(p, true)
	if err != nil {
		return err
	}
	e.unionChildStubs(n, info)
	if !StatusOf(n).HasLocalIDInfo() {
		SetStatus(n, StatusIDComplete)
		e.dirty = true
	}
	return nil
}

// unionChildStubs adds an incomplete stub under dst for every IDable child
// of src that dst does not list.
func (e *editor) unionChildStubs(dst, src *xmldb.Node) {
	for _, sc := range src.Children {
		if id := sc.ID(); id != "" && dst.Child(sc.Name, id) == nil {
			e.stub(dst, sc.Name, id)
		}
	}
}

// applyLocalInfo replaces the local-information unit of the writable node n
// with src's, copied: src's attributes other than status, its text, its
// non-IDable subtrees, and stubs for its IDable children. IDable children
// that n already has and src lists are kept with everything below them (in
// a transaction they stay shared and unwritten); the ones src does not list
// are dropped, since fresh local information is authoritative about which
// children exist. src is only read, so it may belong to another store or
// version, or be n itself.
func (e *editor) applyLocalInfo(n, src *xmldb.Node, st Status) {
	e.dirty = true
	track := e.s.countKnown()
	btrack := e.s.cachedBytesKnown()
	if btrack && StatusOf(n) == StatusComplete {
		e.s.addCachedBytes(-LocalInfoBytes(n))
	}
	attrs, kids := src.Attrs, src.Children
	n.Attrs = make([]xmldb.Attr, 0, len(attrs)+1)
	for _, a := range attrs {
		if a.Name != xmldb.AttrStatus {
			n.SetAttr(a.Name, a.Value)
		}
	}
	n.Text = src.Text
	SetStatus(n, st)

	type childKey struct{ name, id string }
	keep := map[childKey]*xmldb.Node{}
	for _, c := range n.Children {
		if id := c.ID(); id != "" {
			keep[childKey{c.Name, id}] = c
		} else if track {
			e.s.addNodes(-c.CountNodes())
		}
	}
	n.Children = make([]*xmldb.Node, 0, len(kids))
	for _, c := range kids {
		id := c.ID()
		if id == "" {
			cl := c.Clone()
			stripStatusDeep(cl)
			e.attach(n, cl)
			if track {
				e.s.addNodes(cl.CountNodes())
			}
			continue
		}
		if k := (childKey{c.Name, id}); keep[k] != nil {
			n.Children = append(n.Children, keep[k])
			delete(keep, k)
		} else {
			e.stub(n, c.Name, id)
		}
	}
	for _, dropped := range keep {
		if track {
			e.s.addNodes(-dropped.CountNodes())
		}
		if btrack {
			e.s.addCachedBytes(-cachedBytesIn(dropped))
		}
	}
	if btrack && st == StatusComplete {
		e.s.addCachedBytes(LocalInfoBytes(n))
	}
}

// mergeFragment is Store.MergeFragment. Validation happens before any edit,
// so a rejected fragment leaves the store unchanged.
func (e *editor) mergeFragment(frag *xmldb.Node) error {
	if err := ValidateFragment(frag); err != nil {
		return err
	}
	root := e.s.Root
	if frag.Name != root.Name || (root.ID() != "" && frag.ID() != "" && frag.ID() != root.ID()) {
		return fmt.Errorf("fragment: merge root <%s id=%q> does not match store root <%s id=%q>",
			frag.Name, frag.ID(), root.Name, root.ID())
	}
	e.mergeNode(root, frag)
	return nil
}

// mergeNode merges the fragment node src into the writable node dst.
func (e *editor) mergeNode(dst, src *xmldb.Node) {
	dstStatus := StatusOf(dst)
	switch srcStatus := StatusOf(src); {
	case srcStatus.HasLocalInfo() && supersedes(src, dst, dstStatus):
		e.applyLocalInfo(dst, src, StatusComplete)
	case srcStatus.HasLocalIDInfo() && !dstStatus.HasLocalIDInfo():
		SetStatus(dst, StatusIDComplete)
		e.dirty = true
	}
	// Recurse into the IDable children the source lists, adding a stub for
	// each one dst did not know (an incomplete source node has none).
	for _, sc := range src.Children {
		id := sc.ID()
		if id == "" {
			continue
		}
		dc := dst.Child(sc.Name, id)
		if dc == nil {
			dc = e.stub(dst, sc.Name, id)
		} else {
			dc = e.child(dst, dc)
		}
		e.mergeNode(dc, sc)
	}
}

// supersedes reports whether src's local information replaces that of dst,
// whose status is st: owned data is never clobbered, and a cached copy is
// refreshed only by one at least as new (replace-on-fresh-copy).
func supersedes(src, dst *xmldb.Node, st Status) bool {
	switch st {
	case StatusOwned:
		return false
	case StatusComplete:
		oldTS, okOld := Timestamp(dst)
		newTS, okNew := Timestamp(src)
		return !okOld || !okNew || newTS >= oldTS
	}
	return true
}

// evictLocalInfo is Store.EvictLocalInfo. The checks read the tree without
// writing it, so a refused eviction leaves a transaction's spine shared.
func (e *editor) evictLocalInfo(p xmldb.IDPath) error {
	n := xmldb.FindByIDPath(e.s.Root, p)
	if n == nil {
		return fmt.Errorf("fragment: evict: %s not present", p)
	}
	switch st := StatusOf(n); st {
	case StatusComplete:
	case StatusOwned:
		return fmt.Errorf("fragment: evict: %s is owned (I1 forbids eviction)", p)
	default:
		return fmt.Errorf("fragment: evict: %s has status %v, not complete", p, st)
	}
	n, _, err := e.descend(p, false)
	if err != nil {
		return err
	}
	e.dirty = true
	if e.s.cachedBytesKnown() {
		e.s.addCachedBytes(-LocalInfoBytes(n))
	}
	id := n.ID()
	n.Attrs = nil
	if id != "" {
		n.SetAttr(xmldb.AttrID, id)
	}
	n.Text = ""
	SetStatus(n, StatusIDComplete)
	track := e.s.countKnown()
	kids := n.Children[:0]
	for _, c := range n.Children {
		if c.ID() != "" {
			kids = append(kids, c)
		} else if track {
			e.s.addNodes(-c.CountNodes())
		}
	}
	clear(n.Children[len(kids):])
	n.Children = kids
	return nil
}
