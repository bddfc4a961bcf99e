package fragment

import (
	"fmt"
	"sort"

	"irisnet/internal/xmldb"
)

// sortedKeys returns m's keys in ascending order; mutators iterate maps
// through it so replayed transactions rebuild byte-identical trees.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Copy-on-write versioning for sealed stores.
//
// The site layer publishes its database as a sealed, immutable Store that
// queries read with a single atomic pointer load and no locking. Writers
// (sensor updates, cache merges of sub-answers, evictions, migration
// handoffs, schema changes) build the next version through a COW
// transaction: Begin shallow-copies the root, every touched node has the
// spine from the root down to it path-copied ("freshened"), and untouched
// sibling subtrees are shared structurally with the previous version.
// Commit seals the new version; the site publishes it with one atomic
// pointer store.
//
// Nodes made by a transaction carry no Parent pointer: a spine copy leaves
// it nil and every node a transaction attaches has it cleared (attach). A
// pointer from a shared node up into the version it was made in would reach
// that version's root, and through the root's child list the whole version,
// so nothing a site ever committed could be collected while any node of it
// was still shared. Pointing shared children at the fresh copy instead is no
// better: superseded spine nodes would then point forward, whoever still
// held an old version (a long reader, the process that loaded the base
// store) would pin every later one, and the write would land on nodes that
// readers share. Only the nodes of a store that was built mutable and then
// sealed (a partition, a recovered checkpoint) still have the pointers they
// were built with, into that store alone.
//
// So code that reads a version never navigates upward: walks carry the
// parent or the ID path down with them (CheckInvariants, the schema
// ownership check), and the query engine evaluates plans whose predicates
// use parent or ancestor axes (Plan.NestedIdx >= 0) on a deep Clone, whose
// pointers are whole.
//
// A COW transaction is single-goroutine; the site serializes writers with
// a mutex so concurrent writers cannot lose each other's changes (each
// transaction begins from the latest published version).

// COW is an in-progress copy-on-write transaction producing the next
// version of a sealed store.
type COW struct {
	out *Store
	// fresh marks nodes owned by this transaction: safe to mutate.
	// Everything else reachable from out.Root is shared with previous
	// versions and must not be written.
	fresh map[*xmldb.Node]bool
	// base is the version the transaction started from; used by Commit to
	// carry the base's cache-conscious index forward cheaply.
	base *Store
	// dirty records whether the transaction changed anything the index
	// derives from besides node identity: tree shape (nodes added, removed
	// or reordered), element names, or status attributes. Text and plain
	// attribute edits — the sensor-update hot path — leave it false, and
	// Commit then rebinds the base index instead of discarding it.
	dirty bool
}

// Begin starts a copy-on-write transaction on the store. The store itself
// is never modified; all edits accumulate in a new version returned by
// Commit. The receiver is typically sealed; beginning from an unsealed
// store is allowed (the caller then must not mutate it concurrently).
func (s *Store) Begin() *COW {
	root := cowCopy(s.Root)
	out := &Store{Root: root}
	if n := s.nodes.Load(); n > 0 {
		out.nodes.Store(n)
	}
	if b := s.cbytes.Load(); b > 0 {
		out.cbytes.Store(b)
	}
	return &COW{out: out, fresh: map[*xmldb.Node]bool{root: true}, base: s}
}

// Commit seals and returns the new version. The transaction must not be
// used afterwards.
//
// When the transaction was structure- and status-preserving (dirty is
// false) and the base version had already built its index, the new version
// inherits that index with only the position->node array refilled — one
// pointer walk instead of a full rebuild, so a stream of sensor updates
// keeps snapshots indexed at near-zero incremental cost. Structural
// transactions leave the new version unindexed; its index is rebuilt
// lazily on the next indexed query.
func (w *COW) Commit() *Store {
	out := w.out.Seal()
	if !w.dirty && w.base != nil && w.base.sealed {
		if bi := w.base.idxs.idx.Load(); bi != nil {
			if di := bi.derive(out.Root); di != nil {
				out.idxs.idx.Store(di)
			}
		}
	}
	return out
}

// cowCopy makes a writable copy of n that shares n's children. The copy's
// attribute and child slices are private so appends and in-place edits
// cannot be observed through older versions; it has no Parent pointer.
func cowCopy(n *xmldb.Node) *xmldb.Node {
	c := &xmldb.Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = append(make([]xmldb.Attr, 0, len(n.Attrs)), n.Attrs...)
	}
	if len(n.Children) > 0 {
		c.Children = append(make([]*xmldb.Node, 0, len(n.Children)), n.Children...)
	}
	return c
}

// freshChild returns a writable copy of child under the (fresh) parent,
// splicing it over the shared original in parent's child list. A child
// that is already fresh is returned as is.
func (w *COW) freshChild(parent, child *xmldb.Node) *xmldb.Node {
	if w.fresh[child] {
		return child
	}
	c := cowCopy(child)
	w.fresh[c] = true
	for i, ch := range parent.Children {
		if ch == child {
			parent.Children[i] = c
			break
		}
	}
	return c
}

// attach appends c, a node this transaction created (not a copy of one in
// the base version), to the fresh parent's children and returns it. It is
// the only way a node enters a version: c's subtree loses whatever Parent
// pointers it was built with and parent's is not set, c becomes fresh, and
// since a new node always changes the tree shape the transaction is
// structurally dirty from here on.
func (w *COW) attach(parent, c *xmldb.Node) *xmldb.Node {
	c.Walk(func(x *xmldb.Node) bool {
		x.Parent = nil
		return true
	})
	w.fresh[c] = true
	w.dirty = true
	parent.Children = append(parent.Children, c)
	return c
}

// Touch path-copies the spine down to p and returns the writable node, or
// an error when p is not present. Callers may mutate the returned node's
// own name, attributes, text and child list, but must not write through
// its child pointers (those subtrees are shared); use FreshChild, AddChild
// and RemoveChild for structural edits.
func (w *COW) Touch(p xmldb.IDPath) (*xmldb.Node, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("fragment: empty id path")
	}
	cur := w.out.Root
	if cur.Name != p[0].Name || (p[0].ID != "" && cur.ID() != p[0].ID) {
		return nil, fmt.Errorf("fragment: path %s does not match store root %s[@id=%q]",
			p, cur.Name, cur.ID())
	}
	for _, st := range p[1:] {
		next := cur.Child(st.Name, st.ID)
		if next == nil {
			return nil, fmt.Errorf("fragment: %s not present", p)
		}
		cur = w.freshChild(cur, next)
	}
	return cur, nil
}

// ensurePath is Touch plus stub creation, mirroring Store.ensurePath.
func (w *COW) ensurePath(p xmldb.IDPath) (*xmldb.Node, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("fragment: empty id path")
	}
	cur := w.out.Root
	if cur.Name != p[0].Name || (p[0].ID != "" && cur.ID() != p[0].ID) {
		return nil, fmt.Errorf("fragment: path %s does not match store root %s[@id=%q]",
			p, cur.Name, cur.ID())
	}
	for _, st := range p[1:] {
		next := cur.Child(st.Name, st.ID)
		if next == nil {
			next = w.attach(cur, xmldb.NewElem(st.Name, st.ID))
			SetStatus(next, StatusIncomplete)
			w.out.addNodes(1)
		} else {
			next = w.freshChild(cur, next)
		}
		cur = next
	}
	return cur, nil
}

// FreshChild returns a writable copy of the given child of a node obtained
// from this transaction, for callers that need to edit below a touched
// node (e.g. rewriting a non-IDable field child during a sensor update).
func (w *COW) FreshChild(parent, child *xmldb.Node) *xmldb.Node {
	if !w.fresh[parent] {
		panic("fragment: COW.FreshChild on a node not owned by the transaction")
	}
	return w.freshChild(parent, child)
}

// AddChild appends a newly created node under a fresh parent and accounts
// for its subtree in the version's node count.
func (w *COW) AddChild(parent, c *xmldb.Node) *xmldb.Node {
	if !w.fresh[parent] {
		panic("fragment: COW.AddChild on a node not owned by the transaction")
	}
	w.attach(parent, c)
	if w.out.countKnown() {
		w.out.addNodes(c.CountNodes())
	}
	if w.out.cachedBytesKnown() {
		w.out.addCachedBytes(cachedBytesIn(c))
	}
	return c
}

// RemoveChild unlinks child from the fresh parent; the child itself, which
// may still be live in older versions, is not written. It reports whether
// the child was present.
func (w *COW) RemoveChild(parent, child *xmldb.Node) bool {
	if !w.fresh[parent] {
		panic("fragment: COW.RemoveChild on a node not owned by the transaction")
	}
	for i, ch := range parent.Children {
		if ch == child {
			w.dirty = true
			parent.Children = append(parent.Children[:i], parent.Children[i+1:]...)
			if w.out.countKnown() {
				w.out.addNodes(-child.CountNodes())
			}
			if w.out.cachedBytesKnown() {
				w.out.addCachedBytes(-cachedBytesIn(child))
			}
			return true
		}
	}
	return false
}

// ApplyUpdate applies a sensor update to the node at p: field children's
// text, plain attributes, and the freshness timestamp. The node must
// already exist (owners always hold their nodes).
func (w *COW) ApplyUpdate(p xmldb.IDPath, fields, attrs map[string]string, ts float64) error {
	n, err := w.Touch(p)
	if err != nil {
		return err
	}
	// Updates normally land on owned nodes, but a forwarding race can apply
	// one to a cached copy; keep the unit's byte account in step.
	recount := StatusOf(n) == StatusComplete && w.out.cachedBytesKnown()
	if recount {
		w.out.addCachedBytes(-LocalInfoBytes(n))
	}
	// Iterate both maps in sorted order so an update replayed from the WAL
	// produces a byte-identical node to the live application (map order
	// would otherwise vary the order fresh children and attrs are added).
	for _, name := range sortedKeys(fields) {
		c := n.ChildNamed(name)
		if c == nil {
			c = w.attach(n, xmldb.NewNode(name))
			w.out.addNodes(1)
		} else {
			c = w.freshChild(n, c)
		}
		c.Text = fields[name]
	}
	for _, name := range sortedKeys(attrs) {
		if name == xmldb.AttrID || name == xmldb.AttrStatus {
			continue // structural attributes are not sensor data
		}
		n.SetAttr(name, attrs[name])
	}
	SetTimestamp(n, ts)
	if recount {
		w.out.addCachedBytes(LocalInfoBytes(n))
	}
	return nil
}

// SetStatusAt rewrites the status attribute of the node at p. Transitions
// into and out of complete (migration handoffs turning an owned unit into
// a cached copy and vice versa) move the unit's bytes in and out of the
// cached-data account.
func (w *COW) SetStatusAt(p xmldb.IDPath, st Status) error {
	n, err := w.Touch(p)
	if err != nil {
		return err
	}
	if old := StatusOf(n); old != st {
		w.dirty = true // status feeds the index's localSub bits
		if w.out.cachedBytesKnown() {
			if old == StatusComplete {
				w.out.addCachedBytes(-LocalInfoBytes(n))
			}
			if st == StatusComplete {
				w.out.addCachedBytes(LocalInfoBytes(n))
			}
		}
	}
	SetStatus(n, st)
	return nil
}

// SetTimestampAt stamps the node at p with the given clock reading.
func (w *COW) SetTimestampAt(p xmldb.IDPath, ts float64) error {
	n, err := w.Touch(p)
	if err != nil {
		return err
	}
	SetTimestamp(n, ts)
	return nil
}

// MergeFragment is Store.MergeFragment on the transaction: it merges an
// incoming C1/C2 fragment, path-copying exactly the nodes the merge
// touches. Validation happens before any edit, so a rejected fragment
// leaves the transaction unchanged.
func (w *COW) MergeFragment(frag *xmldb.Node) error {
	if err := ValidateFragment(frag); err != nil {
		return err
	}
	root := w.out.Root
	if frag.Name != root.Name || (root.ID() != "" && frag.ID() != "" && frag.ID() != root.ID()) {
		return fmt.Errorf("fragment: merge root <%s id=%q> does not match store root <%s id=%q>",
			frag.Name, frag.ID(), root.Name, root.ID())
	}
	w.mergeNode(root, frag)
	return nil
}

// mergeNode mirrors Store.mergeNode; dst is always fresh.
func (w *COW) mergeNode(dst, src *xmldb.Node) {
	srcStatus := StatusOf(src)
	dstStatus := StatusOf(dst)
	switch {
	case srcStatus.HasLocalInfo():
		fresh := true
		if dstStatus == StatusOwned {
			fresh = false // never clobber owned data
		} else if dstStatus == StatusComplete {
			oldTS, okOld := Timestamp(dst)
			newTS, okNew := Timestamp(src)
			if okOld && okNew && newTS < oldTS {
				fresh = false // stale copy; keep what we have
			}
		}
		if fresh {
			w.applyLocalInfo(dst, localInfoOf(src), StatusComplete)
		} else {
			w.unionChildStubs(dst, src)
		}
	case srcStatus == StatusIDComplete:
		w.unionChildStubs(dst, src)
		if !dstStatus.HasLocalIDInfo() {
			SetStatus(dst, StatusIDComplete)
			w.dirty = true
		}
	default:
		// Incomplete: nothing beyond the node's existence.
	}
	for _, sc := range src.Children {
		if sc.ID() == "" {
			continue
		}
		dc := dst.Child(sc.Name, sc.ID())
		if dc == nil {
			dc = w.attach(dst, xmldb.NewElem(sc.Name, sc.ID()))
			SetStatus(dc, StatusIncomplete)
			w.out.addNodes(1)
		} else {
			dc = w.freshChild(dst, dc)
		}
		w.mergeNode(dc, sc)
	}
}

// applyLocalInfo mirrors Store.applyLocalInfo on a fresh node. Kept IDable
// children remain shared with the previous version and are not written.
func (w *COW) applyLocalInfo(n *xmldb.Node, info *xmldb.Node, st Status) {
	// Rebuilds n's attribute and child lists wholesale (and may change its
	// status), so the shape the index recorded no longer holds.
	w.dirty = true
	track := w.out.countKnown()
	btrack := w.out.cachedBytesKnown()
	if btrack && StatusOf(n) == StatusComplete {
		w.out.addCachedBytes(-LocalInfoBytes(n))
	}
	n.Attrs = nil
	for _, a := range info.Attrs {
		if a.Name == xmldb.AttrStatus {
			continue
		}
		n.SetAttr(a.Name, a.Value)
	}
	n.Text = info.Text
	SetStatus(n, st)

	keep := map[string]*xmldb.Node{}
	for _, c := range n.Children {
		if c.ID() != "" {
			keep[c.Name+"\x00"+c.ID()] = c
		} else if track {
			w.out.addNodes(-c.CountNodes())
		}
	}
	n.Children = nil
	for _, c := range info.Children {
		if c.ID() == "" {
			cl := c.Clone()
			stripStatusDeep(cl)
			w.attach(n, cl)
			if track {
				w.out.addNodes(cl.CountNodes())
			}
			continue
		}
		key := c.Name + "\x00" + c.ID()
		if old, ok := keep[key]; ok {
			n.Children = append(n.Children, old)
			delete(keep, key)
		} else {
			SetStatus(w.attach(n, xmldb.NewElem(c.Name, c.ID())), StatusIncomplete)
			w.out.addNodes(1)
		}
	}
	for _, dropped := range keep {
		if track {
			w.out.addNodes(-dropped.CountNodes())
		}
		if btrack {
			w.out.addCachedBytes(-cachedBytesIn(dropped))
		}
	}
	if btrack && st == StatusComplete {
		w.out.addCachedBytes(LocalInfoBytes(n))
	}
}

func (w *COW) unionChildStubs(dst, src *xmldb.Node) {
	for _, sc := range src.Children {
		if sc.ID() == "" {
			continue
		}
		if dst.Child(sc.Name, sc.ID()) == nil {
			stub := w.attach(dst, xmldb.NewElem(sc.Name, sc.ID()))
			SetStatus(stub, StatusIncomplete)
			w.out.addNodes(1)
		}
	}
}

// EvictLocalInfo mirrors Store.EvictLocalInfo: downgrade a cached node
// from complete to id-complete, dropping its local-information unit.
func (w *COW) EvictLocalInfo(p xmldb.IDPath) error {
	if w.nodeAt(p) == nil {
		return fmt.Errorf("fragment: evict: %s not present", p)
	}
	st := StatusOf(w.nodeAt(p))
	if st == StatusOwned {
		return fmt.Errorf("fragment: evict: %s is owned (I1 forbids eviction)", p)
	}
	if st != StatusComplete {
		return fmt.Errorf("fragment: evict: %s has status %v, not complete", p, st)
	}
	n, err := w.Touch(p)
	if err != nil {
		return err
	}
	w.dirty = true
	track := w.out.countKnown()
	if w.out.cachedBytesKnown() {
		w.out.addCachedBytes(-LocalInfoBytes(n))
	}
	id := n.ID()
	n.Attrs = nil
	if id != "" {
		n.SetAttr(xmldb.AttrID, id)
	}
	n.Text = ""
	SetStatus(n, StatusIDComplete)
	var kids []*xmldb.Node
	for _, c := range n.Children {
		if c.ID() != "" {
			kids = append(kids, c)
		} else if track {
			w.out.addNodes(-c.CountNodes())
		}
	}
	n.Children = kids
	return nil
}

// EvictSubtree mirrors Store.EvictSubtree: drop everything below p,
// downgrading it to a bare incomplete stub. Fails when the subtree
// contains owned data.
func (w *COW) EvictSubtree(p xmldb.IDPath) error {
	probe := w.nodeAt(p)
	if probe == nil {
		return fmt.Errorf("fragment: evict: %s not present", p)
	}
	if len(p) <= 1 {
		return fmt.Errorf("fragment: evict: cannot evict the document root")
	}
	owned := false
	probe.Walk(func(x *xmldb.Node) bool {
		if StatusOf(x) == StatusOwned {
			owned = true
			return false
		}
		return true
	})
	if owned {
		return fmt.Errorf("fragment: evict: subtree %s contains owned data", p)
	}
	n, err := w.Touch(p)
	if err != nil {
		return err
	}
	w.dirty = true
	if w.out.countKnown() {
		w.out.addNodes(-(n.CountNodes() - 1))
	}
	if w.out.cachedBytesKnown() {
		w.out.addCachedBytes(-cachedBytesIn(n))
	}
	id := n.ID()
	n.Attrs = nil
	if id != "" {
		n.SetAttr(xmldb.AttrID, id)
	}
	n.Text = ""
	n.Children = nil
	SetStatus(n, StatusIncomplete)
	return nil
}

// nodeAt reads the node at p in the in-progress version without freshening
// anything (pre-checks that must not dirty the spine on failure).
func (w *COW) nodeAt(p xmldb.IDPath) *xmldb.Node {
	return xmldb.FindByIDPath(w.out.Root, p)
}
