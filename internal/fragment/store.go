package fragment

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"irisnet/internal/xmldb"
)

// Store is the site database of one organizing agent: a fragment of the
// logical document rooted at the document root. Invariant I2 guarantees
// that whenever any node is present, the local ID information of all its
// ancestors is too, so the fragment is always a rooted tree.
//
// Store performs no locking; the site layer serializes mutation. A store
// may additionally be sealed (Seal), after which it is immutable and safe
// to read from any number of goroutines concurrently — the site layer
// publishes sealed snapshots to its lock-free query path and builds new
// versions with the copy-on-write transaction in snapshot.go.
type Store struct {
	// Root is the document root stub; never nil after NewStore.
	Root *xmldb.Node

	// nodes caches the element-node count of the subtree under Root.
	// 0 means unknown (a store always has at least the root node); it is
	// maintained incrementally by the mutators so Size is O(1) on stores
	// that never left the accounted path, and recomputed lazily otherwise.
	nodes atomic.Int64

	// cachedN caches CachedCount for sealed stores, encoded as count+1 so
	// the zero value means "not computed yet".
	cachedN atomic.Int64

	// cbytes caches the accounted byte size of all cached (complete)
	// local-information units, encoded as bytes+1 so the zero value means
	// "not computed yet". Maintained incrementally by the mutators once
	// known; see residency.go.
	cbytes atomic.Int64

	// sealed marks the store immutable. Mutating methods panic when set;
	// it exists to catch writers that bypass the copy-on-write path.
	sealed bool

	// idxs holds the lazily-built cache-conscious index of this version
	// (index.go). Only meaningful once sealed.
	idxs indexState
}

// NewStore creates an empty store whose document root has the given element
// name and id. The root starts incomplete: the site knows nothing yet.
func NewStore(rootName, rootID string) *Store {
	root := xmldb.NewElem(rootName, rootID)
	SetStatus(root, StatusIncomplete)
	s := &Store{Root: root}
	s.nodes.Store(1)
	return s
}

// RestoreStore wraps an already-built document tree (typically parsed back
// from a durability checkpoint) as a store. Node and byte counts are left
// unknown and recomputed lazily on first use.
func RestoreStore(root *xmldb.Node) *Store {
	return &Store{Root: root}
}

// Seal marks the store immutable and returns it. Sealed stores are safe
// for concurrent readers; every further mutation must go through a
// copy-on-write transaction (Store.Begin) that produces a new version.
func (s *Store) Seal() *Store {
	s.sealed = true
	return s
}

// Sealed reports whether the store has been sealed.
func (s *Store) Sealed() bool { return s.sealed }

// edit returns the editor that writes s in place (editor.go).
func (s *Store) edit() *editor {
	if s.sealed {
		panic("fragment: mutation of a sealed store; use Begin() for copy-on-write")
	}
	return &editor{s: s}
}

// addNodes adjusts the cached node count by delta when the count is known.
// An unknown count stays unknown; Size recomputes it on demand.
func (s *Store) addNodes(delta int) {
	if delta == 0 {
		return
	}
	for {
		cur := s.nodes.Load()
		if cur == 0 {
			return
		}
		if s.nodes.CompareAndSwap(cur, cur+int64(delta)) {
			return
		}
	}
}

// countKnown reports whether the cached node count is valid, letting
// mutators skip subtree walks whose only purpose is delta accounting.
func (s *Store) countKnown() bool { return s.nodes.Load() != 0 }

// NodeAt returns the stored node at the ID path, or nil.
func (s *Store) NodeAt(p xmldb.IDPath) *xmldb.Node {
	return xmldb.FindByIDPath(s.Root, p)
}

// SetTimestamp stamps a node with the given time (seconds on the local
// clock), used by owners when applying sensor updates.
func SetTimestamp(n *xmldb.Node, ts float64) {
	n.SetAttr(xmldb.AttrTimestamp, strconv.FormatFloat(ts, 'f', -1, 64))
}

// Timestamp reads a node's timestamp; ok is false when the node has none.
func Timestamp(n *xmldb.Node) (float64, bool) {
	v, present := n.Attr(xmldb.AttrTimestamp)
	if !present {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// InstallLocalInfo replaces the local-information unit of the node at path
// with that of src, a node of another tree (typically the stored node of
// another store or version), upgrading the node to the given status. Only
// src's local information is read: its attributes, text and non-IDable
// subtrees are copied, its IDable children become stubs. Existing IDable
// children that are richer than those stubs are preserved; IDable children
// of the stored node that src does NOT list are removed (fresh local
// information is authoritative about which children exist). Ancestor local
// ID information must already be present (invariant I2) — the caller
// arranges it via EnsureAncestors or a prior merge.
func (s *Store) InstallLocalInfo(p xmldb.IDPath, src *xmldb.Node, st Status) error {
	return s.edit().installLocalInfo(p, src, st)
}

// InstallLocalIDInfo merges the local ID information of the node at path:
// its ID plus stubs for the listed IDable children. If the node is below
// id-complete it is upgraded; richer statuses are untouched. Info must list
// IDable children only; otherwise the store is left unchanged.
func (s *Store) InstallLocalIDInfo(p xmldb.IDPath, info *xmldb.Node) error {
	return s.edit().installLocalIDInfo(p, info)
}

// EnsureAncestors installs the local ID information of every proper
// ancestor of path, derived from the reference document. It is used when
// building initial partitions; at runtime ancestors arrive in answer
// fragments instead.
func (s *Store) EnsureAncestors(ref *xmldb.Node, p xmldb.IDPath) error {
	for i := 1; i < len(p); i++ {
		anc := p[:i]
		refNode := xmldb.FindByIDPath(ref, anc)
		if refNode == nil {
			return fmt.Errorf("fragment: ancestor %s not in reference document", anc)
		}
		if err := s.InstallLocalIDInfo(anc, LocalIDInfo(refNode)); err != nil {
			return err
		}
	}
	return nil
}

// MarkUnreachable records in an answer store that the subtree at p could
// not be fetched before the query gave up (owner dead, partitioned, or past
// the deadline). The marker is a placeholder with status "unreachable" that
// extraction skips by default; it never overwrites data the store already
// holds. When an ancestor on the way to p is absent or itself a bare stub,
// the mark is placed at that higher point instead — the whole gap is
// unreachable, and placing a child under an incomplete node would violate
// the fragment conditions.
func (s *Store) MarkUnreachable(p xmldb.IDPath) error {
	e := s.edit()
	if len(p) == 0 {
		return fmt.Errorf("fragment: empty id path")
	}
	cur := s.Root
	if cur.Name != p[0].Name || (p[0].ID != "" && cur.ID() != "" && cur.ID() != p[0].ID) {
		return fmt.Errorf("fragment: path %s does not match store root %s[@id=%q]",
			p, cur.Name, cur.ID())
	}
	for _, st := range p[1:] {
		next := cur.Child(st.Name, st.ID)
		if next == nil {
			switch StatusOf(cur) {
			case StatusUnreachable:
				return nil // already marked higher up
			case StatusIncomplete:
				if len(cur.Children) == 0 {
					SetStatus(cur, StatusUnreachable)
					return nil
				}
			}
			SetStatus(e.attach(cur, xmldb.NewElem(st.Name, st.ID)), StatusUnreachable)
			s.addNodes(1)
			return nil
		}
		cur = next
	}
	if st := StatusOf(cur); (st == StatusIncomplete || st == StatusUnreachable) && len(cur.Children) == 0 {
		SetStatus(cur, StatusUnreachable)
	}
	return nil
}

// UnreachablePaths returns the ID paths of every unreachable-marked node in
// the store, in document order (the affected subtrees of a partial answer).
func (s *Store) UnreachablePaths() []xmldb.IDPath {
	var out []xmldb.IDPath
	s.Root.Walk(func(n *xmldb.Node) bool {
		if StatusOf(n) == StatusUnreachable {
			if p, ok := xmldb.IDPathOf(n); ok {
				out = append(out, p)
			}
			return false // nothing meaningful below a placeholder
		}
		return true
	})
	return out
}

// MergeFragment merges an incoming fragment (an answer or cache-fill
// produced by another site) into the store. The fragment must be rooted at
// the document root and satisfy the cache conditions C1 and C2; every
// IDable node in it carries a status attribute saying what the fragment
// holds for that node (complete, id-complete or incomplete). Statuses in
// the store are only ever upgraded, except that a complete node's local
// info is refreshed when the incoming copy is at least as new (the paper's
// replace-on-fresh-copy policy). Owned data is never overwritten by a merge.
func (s *Store) MergeFragment(frag *xmldb.Node) error {
	return s.edit().mergeFragment(frag)
}

// ValidateFragment checks the structural cache conditions on an incoming
// fragment (C1 and C2 of Section 3.3): every node is either an IDable stub
// or part of a local-information unit; a node carrying local (ID)
// information has a parent carrying at least local ID information; nodes
// marked incomplete have no children; id-complete nodes have only IDable
// children.
func ValidateFragment(frag *xmldb.Node) error {
	var check func(n *xmldb.Node, parentStatus Status, depth int) error
	check = func(n *xmldb.Node, parentStatus Status, depth int) error {
		if depth > 0 && n.ID() == "" {
			// Non-IDable node: legal only inside a complete parent's local info.
			if !parentStatus.HasLocalInfo() {
				return fmt.Errorf("fragment: C1 violation: non-IDable <%s> under %v parent", n.Name, parentStatus)
			}
			return nil // whole subtree belongs to the local info unit
		}
		st := StatusOf(n)
		if depth > 0 && st.HasLocalIDInfo() && !parentStatus.HasLocalIDInfo() {
			return fmt.Errorf("fragment: C2 violation: <%s id=%q> has local (ID) info but parent lacks local ID info", n.Name, n.ID())
		}
		if (st == StatusIncomplete || st == StatusUnreachable) && len(n.Children) > 0 {
			return fmt.Errorf("fragment: %v <%s id=%q> must not have children", st, n.Name, n.ID())
		}
		if st == StatusIDComplete {
			for _, c := range n.Children {
				if c.ID() == "" {
					return fmt.Errorf("fragment: id-complete <%s id=%q> has non-IDable child <%s>", n.Name, n.ID(), c.Name)
				}
			}
		}
		for _, c := range n.Children {
			if c.ID() == "" {
				continue // local info unit; no per-node statuses inside
			}
			if err := check(c, st, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return check(frag, StatusIncomplete, 0)
}

// EvictLocalInfo downgrades a cached node from complete to id-complete,
// removing the local-information unit (attributes other than id, text, and
// the non-IDable children) while keeping the IDable child stubs and their
// subtrees. Owned nodes cannot be evicted (invariant I1).
func (s *Store) EvictLocalInfo(p xmldb.IDPath) error {
	return s.edit().evictLocalInfo(p)
}

// Size returns the number of element nodes stored. The count is cached and
// maintained incrementally by the mutators, so on the query path (answer
// stores, sealed snapshots) it is O(1) instead of a subtree walk.
func (s *Store) Size() int {
	if n := s.nodes.Load(); n > 0 {
		return int(n)
	}
	n := int64(s.Root.CountNodes())
	s.nodes.Store(n)
	return int(n)
}

// CachedCount returns the number of complete (cached, non-owned) IDable
// nodes in the store — the cache-occupancy figure exposed over /metrics.
// On sealed stores the walk runs at most once per version.
func (s *Store) CachedCount() int {
	if s.sealed {
		if v := s.cachedN.Load(); v > 0 {
			return int(v - 1)
		}
	}
	n := 0
	s.Root.Walk(func(x *xmldb.Node) bool {
		if StatusOf(x) == StatusComplete {
			n++
		}
		return true
	})
	if s.sealed {
		s.cachedN.Store(int64(n + 1))
	}
	return n
}

// Clone returns a deep, mutable copy of the store, for snapshotting in
// tests and for nested-plan evaluation working copies.
func (s *Store) Clone() *Store {
	c := &Store{Root: s.Root.Clone()}
	if n := s.nodes.Load(); n > 0 {
		c.nodes.Store(n)
	}
	if b := s.cbytes.Load(); b > 0 {
		c.cbytes.Store(b)
	}
	return c
}
