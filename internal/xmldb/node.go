// Package xmldb implements the native XML document store used by every
// IrisNet site (organizing agent). A site's database is a fragment of one
// logical XML document; xmldb provides the tree representation, parsing,
// serialization, and the structural notions the paper builds on: IDable
// nodes, ID paths, and unordered document equality.
//
// The store is deliberately free of locking: concurrency control lives in
// the site layer, which owns exactly one Store per organizing agent.
package xmldb

import (
	"fmt"
	"sort"
	"strings"
)

// Well-known attribute names used by the IrisNet partitioning scheme.
const (
	// AttrID is the id attribute that makes a node IDable. Its value must
	// be unique among siblings with the same element name (Definition 3.1).
	AttrID = "id"
	// AttrStatus summarizes how much of an IDable node's data this site
	// stores: owned, complete, id-complete or incomplete (Section 3.2).
	AttrStatus = "status"
	// AttrTimestamp records, in nanoseconds on the creating site's clock,
	// when the data for the node was produced (Section 4, query-based
	// consistency).
	AttrTimestamp = "ts"
)

// Attr is a single XML attribute. Attribute order is preserved on
// serialization but is irrelevant for equality.
type Attr struct {
	Name  string
	Value string
}

// Node is one element in the document tree. Text holds the concatenated
// character data directly inside the element (the databases in the paper
// use text only in leaf fields such as <available>yes</available>).
type Node struct {
	Name     string
	Attrs    []Attr
	Text     string
	Children []*Node
	Parent   *Node
}

// NewNode returns a parentless element node with the given name.
func NewNode(name string) *Node { return &Node{Name: name} }

// NewElem returns a node with the given name and id attribute, which is the
// common shape for IDable nodes in sensor hierarchies.
func NewElem(name, id string) *Node {
	n := NewNode(name)
	if id != "" {
		n.SetAttr(AttrID, id)
	}
	return n
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// AttrOr returns the value of the named attribute, or def if absent.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// SetAttr sets (or replaces) the named attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// DelAttr removes the named attribute if present and reports whether it was.
func (n *Node) DelAttr(name string) bool {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// ID returns the node's id attribute ("" if the node has none).
func (n *Node) ID() string {
	v, _ := n.Attr(AttrID)
	return v
}

// AddChild appends c to n's children and sets c's parent pointer.
func (n *Node) AddChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return c
}

// RemoveChild unlinks c from n. It reports whether c was a child of n.
func (n *Node) RemoveChild(c *Node) bool {
	for i, ch := range n.Children {
		if ch == c {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			c.Parent = nil
			return true
		}
	}
	return false
}

// Child returns the first child with the given element name and id
// attribute value, or nil.
func (n *Node) Child(name, id string) *Node {
	for _, c := range n.Children {
		if c.Name == name && c.ID() == id {
			return c
		}
	}
	return nil
}

// ChildNamed returns the first child with the given element name, or nil.
func (n *Node) ChildNamed(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all children with the given element name.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Root follows parent pointers to the root of the tree containing n.
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Clone returns a deep copy of the subtree rooted at n. The copy's Parent
// is nil.
func (n *Node) Clone() *Node {
	c := n.CloneShallow()
	if len(n.Children) > 0 {
		c.Children = make([]*Node, 0, len(n.Children))
	}
	for _, ch := range n.Children {
		c.AddChild(ch.Clone())
	}
	return c
}

// CloneShallow copies n's name, attributes and text but no children.
func (n *Node) CloneShallow() *Node {
	c := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		c.Attrs = make([]Attr, len(n.Attrs))
		copy(c.Attrs, n.Attrs)
	}
	return c
}

// Walk calls fn for every node in the subtree rooted at n, in pre-order.
// If fn returns false the walk does not descend into that node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// CountNodes returns the number of element nodes in the subtree.
func (n *Node) CountNodes() int {
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// IsIDable reports whether n is an IDable node per Definition 3.1: the root
// is IDable; a non-root node is IDable if it has an id attribute unique
// among same-named siblings and its parent is IDable.
func (n *Node) IsIDable() bool {
	if n.Parent == nil {
		return true
	}
	id := n.ID()
	if id == "" {
		return false
	}
	for _, sib := range n.Parent.Children {
		if sib != n && sib.Name == n.Name && sib.ID() == id {
			return false
		}
	}
	return n.Parent.IsIDable()
}

// HasIDableForm reports whether n has an id attribute (or is a root).
// Unlike IsIDable it does not verify sibling uniqueness, which makes it
// usable on detached fragments where siblings are not all present.
func (n *Node) HasIDableForm() bool {
	return n.Parent == nil || n.ID() != ""
}

// IDableChildren returns the children of n that carry an id attribute.
func (n *Node) IDableChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.ID() != "" {
			out = append(out, c)
		}
	}
	return out
}

// NonIDableChildren returns the children of n without an id attribute.
func (n *Node) NonIDableChildren() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.ID() == "" {
			out = append(out, c)
		}
	}
	return out
}

// Equal reports whether the two subtrees are equal as unordered documents:
// same name, same text, same attribute set, and children that match up
// one-to-one under Equal irrespective of sibling order.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	return canonical(a) == canonical(b)
}

// canonical produces an order-insensitive string form of the subtree,
// sorting attributes by name and children by their own canonical forms.
func canonical(n *Node) string {
	var sb strings.Builder
	writeCanonical(&sb, n)
	return sb.String()
}

func writeCanonical(sb *strings.Builder, n *Node) {
	sb.WriteByte('<')
	sb.WriteString(n.Name)
	if len(n.Attrs) > 0 {
		attrs := make([]Attr, len(n.Attrs))
		copy(attrs, n.Attrs)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
		for _, a := range attrs {
			fmt.Fprintf(sb, " %s=%q", a.Name, a.Value)
		}
	}
	sb.WriteByte('>')
	if t := strings.TrimSpace(n.Text); t != "" {
		sb.WriteString(t)
	}
	if len(n.Children) > 0 {
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = canonical(c)
		}
		sort.Strings(kids)
		for _, k := range kids {
			sb.WriteString(k)
		}
	}
	sb.WriteString("</")
	sb.WriteString(n.Name)
	sb.WriteByte('>')
}

// Canonical returns the order-insensitive canonical string of the subtree.
// Two subtrees are Equal exactly when their Canonical forms are identical.
func (n *Node) Canonical() string { return canonical(n) }
