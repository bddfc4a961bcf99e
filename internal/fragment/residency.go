package fragment

import (
	"irisnet/internal/xmldb"
)

// Memory accounting for cached (non-owned) data, in units of local
// information — the same units eviction (EvictLocalInfo) operates on. A
// store keeps a byte counter of all complete (cached) local-information
// units, maintained incrementally by the editor (editor.go) exactly like
// the node count: 0 means "not computed yet", and
// the first CachedBytes call on a version walks once and seeds the
// counter, after which copy-on-write descendants inherit it and update it
// by deltas. Sites that never set a cache budget never call CachedBytes,
// so the accounted path stays entirely off their hot paths.

// nodeOverheadBytes approximates the fixed in-memory cost of one element
// node (struct, slice headers, pointer slots) on top of its strings.
const nodeOverheadBytes = 48

// attrOverheadBytes approximates the per-attribute cost beyond the strings.
const attrOverheadBytes = 16

// nodeSelfBytes estimates the bytes attributable to the node itself: name,
// text and attributes. The bookkeeping status attribute is excluded so a
// unit measures the same before and after status rewrites.
func nodeSelfBytes(n *xmldb.Node) int {
	b := nodeOverheadBytes + len(n.Name) + len(n.Text)
	for _, a := range n.Attrs {
		if a.Name == xmldb.AttrStatus {
			continue
		}
		b += len(a.Name) + len(a.Value) + attrOverheadBytes
	}
	return b
}

// subtreeBytes estimates the bytes of a whole (non-IDable) subtree.
func subtreeBytes(n *xmldb.Node) int {
	b := nodeSelfBytes(n)
	for _, c := range n.Children {
		b += subtreeBytes(c)
	}
	return b
}

// LocalInfoBytes estimates the in-memory size of n's local-information
// unit (Definition 3.2): the node's own name, attributes and text plus the
// full subtrees of its non-IDable children. IDable children are separate
// units and are not included.
func LocalInfoBytes(n *xmldb.Node) int {
	b := nodeSelfBytes(n)
	for _, c := range n.Children {
		if c.ID() == "" {
			b += subtreeBytes(c)
		}
	}
	return b
}

// cachedBytesIn sums LocalInfoBytes over every complete (cached) node in
// the subtree rooted at n. Non-IDable nodes inside a unit carry no status
// attribute, so they are never double counted.
func cachedBytesIn(n *xmldb.Node) int {
	total := 0
	n.Walk(func(x *xmldb.Node) bool {
		if StatusOf(x) == StatusComplete {
			total += LocalInfoBytes(x)
		}
		return true
	})
	return total
}

// addCachedBytes adjusts the cached-bytes counter by delta when it is
// known; an unknown counter stays unknown (CachedBytes recomputes it).
// The counter is encoded as bytes+1 so the zero value means "unknown"
// while zero cached bytes remains representable.
func (s *Store) addCachedBytes(delta int) {
	if delta == 0 {
		return
	}
	for {
		cur := s.cbytes.Load()
		if cur == 0 {
			return
		}
		if s.cbytes.CompareAndSwap(cur, cur+int64(delta)) {
			return
		}
	}
}

// cachedBytesKnown reports whether the cached-bytes counter is valid,
// letting mutators skip unit-size walks that exist only for accounting.
func (s *Store) cachedBytesKnown() bool { return s.cbytes.Load() != 0 }

// CachedBytes returns the accounted size in bytes of all cached (complete,
// non-owned) local-information units in the store. The figure is cached
// and maintained incrementally by the mutators; the first call on a store
// that never had it walks the fragment once.
func (s *Store) CachedBytes() int {
	if v := s.cbytes.Load(); v > 0 {
		return int(v - 1)
	}
	b := cachedBytesIn(s.Root)
	s.cbytes.Store(int64(b) + 1)
	return b
}

// CachedBytes exposes the in-progress version's accounted cache bytes to
// the eviction policy, which trims the version to budget before commit.
func (w *COW) CachedBytes() int {
	return w.s.CachedBytes()
}

// Root exposes the in-progress version's root for read-only walks: the
// eviction policy adopts cached units it finds in the version it is
// trimming, not in the published one the transaction started from.
func (w *COW) Root() *xmldb.Node {
	return w.s.Root
}
