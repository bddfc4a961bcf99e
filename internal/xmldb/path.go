package xmldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Step is one hop in an ID path: the element name and the id attribute
// value of an IDable node. The root step may have an empty ID when the root
// element itself has no id attribute.
type Step struct {
	Name string
	ID   string
}

func (s Step) String() string {
	if s.ID == "" {
		return s.Name
	}
	return string(s.AppendKey(nil)[1:])
}

// AppendKey appends "/" and the step's String form to buf. Appending the
// steps of a path in order yields exactly IDPath.Key(), so a tree descent can
// carry every node's key in one reused buffer instead of walking parent
// pointers and formatting per node.
func (s Step) AppendKey(buf []byte) []byte {
	buf = append(buf, '/')
	buf = append(buf, s.Name...)
	if s.ID == "" {
		return buf
	}
	buf = append(buf, "[@id="...)
	buf = strconv.AppendQuote(buf, s.ID) // the %q form keys have always used
	return append(buf, ']')
}

// IDPath is the sequence of IDs on the path from the document root to an
// IDable node. Every IDable node is uniquely identified by its IDPath
// (Definition 3.1), which is what makes nodes globally addressable.
type IDPath []Step

// String renders the path in XPath-like form, e.g.
// /usRegion[@id="NE"]/state[@id="PA"].
func (p IDPath) String() string {
	if len(p) == 0 {
		return "/"
	}
	var buf []byte
	for _, s := range p {
		buf = s.AppendKey(buf)
	}
	return string(buf)
}

// Key returns a canonical map key for the path.
func (p IDPath) Key() string { return p.String() }

// Equal reports whether two ID paths are identical.
func (p IDPath) Equal(q IDPath) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the path.
func (p IDPath) Clone() IDPath {
	out := make(IDPath, len(p))
	copy(out, p)
	return out
}

// Child returns p extended with one more step.
func (p IDPath) Child(name, id string) IDPath {
	out := make(IDPath, len(p)+1)
	copy(out, p)
	out[len(p)] = Step{Name: name, ID: id}
	return out
}

// Parent returns the path with its last step removed. The parent of a
// single-step path is the empty path.
func (p IDPath) Parent() IDPath {
	if len(p) == 0 {
		return nil
	}
	return p[:len(p)-1].Clone()
}

// IsPrefixOf reports whether p is a (non-strict) prefix of q.
func (p IDPath) IsPrefixOf(q IDPath) bool {
	if len(p) > len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IDPathOf computes the ID path of node n within its tree by following
// parent pointers to the root. It returns false if any node on the way is
// not ID-addressable (missing id attribute below the root).
func IDPathOf(n *Node) (IDPath, bool) {
	var rev []Step
	for cur := n; cur != nil; cur = cur.Parent {
		id := cur.ID()
		if cur.Parent != nil && id == "" {
			return nil, false
		}
		rev = append(rev, Step{Name: cur.Name, ID: id})
	}
	out := make(IDPath, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, true
}

// FindByIDPath descends from root along the ID path. The first step must
// match the root itself. It returns nil if any step is missing.
func FindByIDPath(root *Node, p IDPath) *Node {
	if len(p) == 0 {
		return nil
	}
	if root.Name != p[0].Name {
		return nil
	}
	if p[0].ID != "" && root.ID() != p[0].ID {
		return nil
	}
	cur := root
	for _, s := range p[1:] {
		cur = cur.Child(s.Name, s.ID)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// EnsureIDPath descends from root along the ID path, creating any missing
// nodes (with only their name and id attributes). The first step must match
// the root. It returns the node at the end of the path.
func EnsureIDPath(root *Node, p IDPath) (*Node, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("xmldb: empty id path")
	}
	if root.Name != p[0].Name || (p[0].ID != "" && root.ID() != p[0].ID) {
		return nil, fmt.Errorf("xmldb: id path %s does not start at root %s[@id=%q]",
			p, root.Name, root.ID())
	}
	cur := root
	for _, s := range p[1:] {
		next := cur.Child(s.Name, s.ID)
		if next == nil {
			next = cur.AddChild(NewElem(s.Name, s.ID))
		}
		cur = next
	}
	return cur, nil
}

// ParseIDPath parses the XPath-like form produced by IDPath.String, e.g.
// /usRegion[@id="NE"]/state[@id="PA"]. Both single and double quotes are
// accepted around id values, and a step may omit the predicate entirely.
func ParseIDPath(s string) (IDPath, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "/" {
		return nil, nil
	}
	if !strings.HasPrefix(s, "/") {
		return nil, fmt.Errorf("xmldb: id path must be absolute: %q", s)
	}
	var out IDPath
	for _, part := range splitPathSegments(s[1:]) {
		name := part
		id := ""
		if i := strings.IndexByte(part, '['); i >= 0 {
			name = part[:i]
			pred := part[i:]
			if !strings.HasPrefix(pred, "[@id=") || !strings.HasSuffix(pred, "]") {
				return nil, fmt.Errorf("xmldb: bad id path step %q", part)
			}
			val := pred[len("[@id=") : len(pred)-1]
			if len(val) < 2 || (val[0] != '\'' && val[0] != '"') || val[len(val)-1] != val[0] {
				return nil, fmt.Errorf("xmldb: bad id value in step %q", part)
			}
			id = val[1 : len(val)-1]
		}
		if name == "" {
			return nil, fmt.Errorf("xmldb: empty step in id path %q", s)
		}
		out = append(out, Step{Name: name, ID: id})
	}
	return out, nil
}

// splitPathSegments splits on '/' characters that are not inside brackets.
func splitPathSegments(s string) []string {
	var parts []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '/':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}
