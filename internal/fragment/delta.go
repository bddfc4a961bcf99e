package fragment

import (
	"fmt"

	"irisnet/internal/xmldb"
)

// Replication delta encoding (owner-push replication).
//
// An owner streams its committed changes to read replicas as ordinary
// C1/C2 wire fragments: ancestors of each changed node contribute their
// local ID information (so the spine stays honest about which children
// exist), and each changed node contributes its full post-commit
// local-information unit, tagged complete — on the replica the data is a
// cached copy, never owned. A replica applies a delta with the same
// MergeFragment path every cached answer already uses, which buys the two
// properties replication needs for free:
//
//   - idempotence and monotonicity: mergeNode's stale-timestamp guard
//     keeps a redelivered or reordered delta from moving a node backwards
//     in time, so resending after a failover is harmless;
//   - freshness correctness: replica data is status-complete, so the QEG
//     freshness predicates treat it exactly like any cached copy and
//     trigger refresh subqueries when a query demands fresher data than
//     the replica holds.
//
// Shipping the post-commit local-information unit (rather than the raw
// update payload) means a delta is self-contained: a replica that missed
// earlier deltas for a node still converges to the owner's state.

// BuildDelta encodes the current local information of the nodes at the
// given paths, read from the sealed snapshot, as a C1/C2 fragment rooted
// at the document root. Paths whose node has disappeared from the
// snapshot (delegated away mid-stream) are skipped. The returned store is
// a detached fragment builder; serialize it with
// Root.StringSized(Size()).
func BuildDelta(snap *Store, paths []xmldb.IDPath) (*Store, error) {
	frag := NewStore(snap.Root.Name, snap.Root.ID())
	installed := map[string]bool{}
	for _, p := range paths {
		n := snap.NodeAt(p)
		if n == nil || !StatusOf(n).HasLocalInfo() {
			continue
		}
		if err := installSpine(frag, snap, p, installed); err != nil {
			return nil, err
		}
		if err := frag.InstallLocalInfo(p, n, StatusComplete); err != nil {
			return nil, err
		}
	}
	return frag, nil
}

// BuildSync encodes the full replication seed for the subtree at root:
// ancestor local-ID spines plus, for every node at or below root, its
// local information (complete) or local ID information, mirroring what
// the owner itself knows. A new replica installs this before the delta
// stream starts, exactly as a migration target installs its transfer
// fragment.
func BuildSync(snap *Store, root xmldb.IDPath) (*Store, error) {
	top := snap.NodeAt(root)
	if top == nil {
		return nil, fmt.Errorf("fragment: sync root %s not present", root)
	}
	frag := NewStore(snap.Root.Name, snap.Root.ID())
	if err := installSpine(frag, snap, root, map[string]bool{}); err != nil {
		return nil, err
	}
	var walk func(n *xmldb.Node, p xmldb.IDPath) error
	walk = func(n *xmldb.Node, p xmldb.IDPath) error {
		st := StatusOf(n)
		switch {
		case st.HasLocalInfo():
			if err := frag.InstallLocalInfo(p, n, StatusComplete); err != nil {
				return err
			}
		case st.HasLocalIDInfo():
			if err := frag.InstallLocalIDInfo(p, LocalIDInfo(n)); err != nil {
				return err
			}
		default:
			return nil // bare stub: existence already recorded by the parent
		}
		for _, c := range n.Children {
			if c.ID() == "" {
				continue
			}
			if err := walk(c, p.Child(c.Name, c.ID())); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(top, root); err != nil {
		return nil, err
	}
	return frag, nil
}

// installSpine installs local ID information for every proper ancestor of
// p, memoizing in installed so a batch touching many siblings encodes
// each spine node once.
func installSpine(frag *Store, snap *Store, p xmldb.IDPath, installed map[string]bool) error {
	for i := 1; i < len(p); i++ {
		anc := p[:i]
		key := anc.Key()
		if installed[key] {
			continue
		}
		n := snap.NodeAt(anc)
		if n == nil {
			return fmt.Errorf("fragment: delta ancestor %s missing (I2 violation)", anc)
		}
		if err := frag.InstallLocalIDInfo(anc.Clone(), LocalIDInfo(n)); err != nil {
			return err
		}
		installed[key] = true
	}
	return nil
}
