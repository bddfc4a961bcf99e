package fragment

import (
	"fmt"

	"irisnet/internal/xmldb"
)

// Delta encoding (ownership transfer).
//
// A delta is an ordinary C1/C2 wire fragment: ancestors of each listed node
// contribute their local ID information (so the spine stays honest about
// which children exist), and each listed node contributes its full
// local-information unit, tagged complete. Delegate ships one as the
// transfer fragment; the new owner merges it with the same MergeFragment
// path every cached answer uses and then claims the transferred nodes.

// BuildDelta encodes the current local information of the nodes at the
// given paths, read from the sealed snapshot, as a C1/C2 fragment rooted
// at the document root. Paths whose node has disappeared from the
// snapshot are skipped. The returned store is a detached fragment builder;
// serialize it with Root.StringSized(Size()).
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
