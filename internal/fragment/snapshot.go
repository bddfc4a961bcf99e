package fragment

import (
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
// it nil and every node a transaction attaches has it cleared
// (editor.attach). A
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
// version of a sealed store: the tree editor (editor.go) in its
// copy-on-write mode, plus the version it started from.
type COW struct {
	editor
	// base is the version the transaction started from; used by Commit to
	// carry the base's cache-conscious index forward cheaply.
	base *Store
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
	return &COW{editor: editor{s: out, fresh: map[*xmldb.Node]bool{root: true}}, base: s}
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
	out := w.s.Seal()
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

// Touch path-copies the spine down to p and returns the writable node, or
// an error when p is not present. Callers may mutate the returned node's
// own name, attributes, text and child list, but must not write through
// its child pointers (those subtrees are shared); use AddChild and
// RemoveChild for structural edits.
func (w *COW) Touch(p xmldb.IDPath) (*xmldb.Node, error) {
	n, _, err := w.descend(p, false)
	return n, err
}

// AddChild appends a newly created node under a fresh parent and accounts
// for its subtree in the version's node count.
func (w *COW) AddChild(parent, c *xmldb.Node) *xmldb.Node {
	if !w.fresh[parent] {
		panic("fragment: COW.AddChild on a node not owned by the transaction")
	}
	w.attach(parent, c)
	if w.s.countKnown() {
		w.s.addNodes(c.CountNodes())
	}
	if w.s.cachedBytesKnown() {
		w.s.addCachedBytes(cachedBytesIn(c))
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
			if w.s.countKnown() {
				w.s.addNodes(-child.CountNodes())
			}
			if w.s.cachedBytesKnown() {
				w.s.addCachedBytes(-cachedBytesIn(child))
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
	recount := StatusOf(n) == StatusComplete && w.s.cachedBytesKnown()
	if recount {
		w.s.addCachedBytes(-LocalInfoBytes(n))
	}
	// Iterate both maps in sorted order so an update replayed from the WAL
	// produces a byte-identical node to the live application (map order
	// would otherwise vary the order fresh children and attrs are added).
	for _, name := range sortedKeys(fields) {
		c := n.ChildNamed(name)
		if c == nil {
			c = w.attach(n, xmldb.NewNode(name))
			w.s.addNodes(1)
		} else {
			c = w.child(n, c)
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
		w.s.addCachedBytes(LocalInfoBytes(n))
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
		if w.s.cachedBytesKnown() {
			if old == StatusComplete {
				w.s.addCachedBytes(-LocalInfoBytes(n))
			}
			if st == StatusComplete {
				w.s.addCachedBytes(LocalInfoBytes(n))
			}
		}
	}
	SetStatus(n, st)
	return nil
}

// MergeFragment is Store.MergeFragment on the transaction, path-copying
// exactly the nodes the merge touches. A rejected fragment leaves the
// transaction unchanged.
func (w *COW) MergeFragment(frag *xmldb.Node) error {
	return w.mergeFragment(frag)
}

// EvictLocalInfo is Store.EvictLocalInfo on the transaction.
func (w *COW) EvictLocalInfo(p xmldb.IDPath) error {
	return w.evictLocalInfo(p)
}
