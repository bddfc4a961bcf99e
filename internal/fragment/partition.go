package fragment

import (
	"fmt"
	"sort"

	"irisnet/internal/xmldb"
)

// Assignment maps every IDable node of a document to the name of the site
// that owns it. Nodes not explicitly assigned inherit their parent's owner,
// which realizes the paper's rule that only an IDable node may have a
// different owner than its parent.
type Assignment struct {
	// RootOwner owns the document root (and, transitively, everything not
	// otherwise assigned).
	RootOwner string
	// Owners maps IDPath keys (IDPath.Key()) to site names.
	Owners map[string]string
}

// NewAssignment creates an assignment with the given root owner.
func NewAssignment(rootOwner string) *Assignment {
	return &Assignment{RootOwner: rootOwner, Owners: map[string]string{}}
}

// Assign sets the owner of the subtree rooted at path (until overridden
// deeper down).
func (a *Assignment) Assign(p xmldb.IDPath, site string) { a.Owners[p.Key()] = site }

// OwnerOf returns the owning site of the IDable node at path.
func (a *Assignment) OwnerOf(p xmldb.IDPath) string {
	for q := p; len(q) > 0; q = q[:len(q)-1] {
		if s, ok := a.Owners[xmldb.IDPath(q).Key()]; ok {
			return s
		}
	}
	return a.RootOwner
}

// Sites returns the sorted set of site names referenced by the assignment.
func (a *Assignment) Sites() []string {
	set := map[string]bool{a.RootOwner: true}
	for _, s := range a.Owners {
		set[s] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Partition builds the initial per-site stores from a full reference
// document and an ownership assignment. Each store satisfies invariants I1
// (local information of every owned node) and I2 (local ID information of
// all ancestors of anything stored). It also returns, per site, the sorted
// ID paths that site owns.
func Partition(doc *xmldb.Node, assign *Assignment) (map[string]*Store, map[string][]xmldb.IDPath, error) {
	stores := map[string]*Store{}
	ownedPaths := map[string][]xmldb.IDPath{}
	storeFor := func(site string) *Store {
		st, ok := stores[site]
		if !ok {
			st = NewStore(doc.Name, doc.ID())
			stores[site] = st
		}
		return st
	}
	for _, site := range assign.Sites() {
		storeFor(site)
	}

	var walk func(n *xmldb.Node, p xmldb.IDPath) error
	walk = func(n *xmldb.Node, p xmldb.IDPath) error {
		owner := assign.OwnerOf(p)
		st := storeFor(owner)
		if err := st.EnsureAncestors(doc, p); err != nil {
			return err
		}
		if err := st.InstallLocalInfo(p, n, StatusOwned); err != nil {
			return err
		}
		ownedPaths[owner] = append(ownedPaths[owner], p)
		for _, c := range n.Children {
			if c.ID() == "" {
				continue // non-IDable: part of n's local info
			}
			if !c.IsIDable() {
				return fmt.Errorf("fragment: node <%s id=%q> under %s is not IDable (duplicate sibling id?)", c.Name, c.ID(), p)
			}
			if err := walk(c, p.Child(c.Name, c.ID())); err != nil {
				return err
			}
		}
		return nil
	}
	rootPath := xmldb.IDPath{{Name: doc.Name, ID: doc.ID()}}
	if err := walk(doc, rootPath); err != nil {
		return nil, nil, err
	}
	for site := range ownedPaths {
		sort.Slice(ownedPaths[site], func(i, j int) bool {
			return ownedPaths[site][i].Key() < ownedPaths[site][j].Key()
		})
	}
	return stores, ownedPaths, nil
}
