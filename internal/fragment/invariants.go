package fragment

import (
	"fmt"

	"irisnet/internal/xmldb"
)

// CheckInvariants verifies a site store against the paper's storage
// invariants, using the reference document as ground truth:
//
//	I1: the local information of every owned node is stored, and marked owned.
//	I2: whenever (at least) a node's ID is stored, the local ID information
//	    of its parent is stored too — i.e. the parent is at least
//	    id-complete and lists ALL of its IDable children from the reference.
//
// It additionally checks the per-status storage contracts: complete/owned
// nodes carry exactly the reference's local information (modulo the data
// values, which updates may have changed when ref is stale — pass
// checkValues=false to skip value comparison), id-complete nodes carry all
// child IDs and no local info, and incomplete nodes carry nothing but an ID.
//
// It returns all violations found.
func CheckInvariants(s *Store, ref *xmldb.Node, owned []xmldb.IDPath, checkValues bool) []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	ownedSet := map[string]bool{}
	for _, p := range owned {
		ownedSet[p.Key()] = true
	}

	// I1: every owned path is present and marked owned.
	for _, p := range owned {
		n := s.NodeAt(p)
		if n == nil {
			fail("I1: owned node %s missing from store", p)
			continue
		}
		if StatusOf(n) != StatusOwned {
			fail("I1: owned node %s has status %v", p, StatusOf(n))
		}
	}

	// The walk hands each node its parent: nodes of a copy-on-write version
	// have no Parent pointer to read (snapshot.go).
	var walk func(n, parent *xmldb.Node, p xmldb.IDPath)
	walk = func(n, parent *xmldb.Node, p xmldb.IDPath) {
		st := StatusOf(n)
		refNode := xmldb.FindByIDPath(ref, p)
		if refNode == nil {
			fail("store has node %s absent from reference document", p)
			return
		}
		if st == StatusOwned && !ownedSet[p.Key()] {
			fail("node %s marked owned but not in owned set", p)
		}

		// I2: if this node stores anything at all, its parent must hold
		// full local ID information (all IDable children of the parent).
		// (The root's children are exempt: len(p) == 2.)
		if len(p) > 2 {
			if ps := StatusOf(parent); !ps.HasLocalIDInfo() {
				fail("I2: node %s present but parent lacks local ID info (status %v)", p, ps)
			}
		}

		switch {
		case st.HasLocalInfo():
			// Must list every IDable child of the reference node.
			for _, rc := range refNode.IDableChildren() {
				if n.Child(rc.Name, rc.ID()) == nil {
					fail("%v node %s missing IDable child stub <%s id=%q>", st, p, rc.Name, rc.ID())
				}
			}
			if checkValues {
				want := LocalInfo(refNode)
				got := LocalInfo(n)
				// Timestamps are runtime metadata; ignore for comparison.
				want.DelAttr(xmldb.AttrTimestamp)
				got.DelAttr(xmldb.AttrTimestamp)
				if !xmldb.Equal(want, got) {
					fail("%v node %s local info differs from reference:\n  got  %s\n  want %s",
						st, p, got, want)
				}
			}
		case st == StatusIDComplete:
			for _, rc := range refNode.IDableChildren() {
				if n.Child(rc.Name, rc.ID()) == nil {
					fail("id-complete node %s missing child ID <%s id=%q>", p, rc.Name, rc.ID())
				}
			}
			for _, c := range n.Children {
				if c.ID() == "" {
					fail("id-complete node %s has non-IDable child <%s>", p, c.Name)
				}
			}
		case st == StatusIncomplete:
			if len(n.Children) > 0 {
				fail("incomplete node %s has children", p)
			}
			for _, a := range n.Attrs {
				if a.Name != xmldb.AttrID && a.Name != xmldb.AttrStatus {
					fail("incomplete node %s carries attribute %q", p, a.Name)
				}
			}
		}

		for _, c := range n.Children {
			if c.ID() == "" {
				continue // inside the local info unit; covered by the Equal check
			}
			walk(c, n, p.Child(c.Name, c.ID()))
		}
	}
	walk(s.Root, nil, xmldb.IDPath{{Name: s.Root.Name, ID: s.Root.ID()}})
	return errs
}
