package xmldb

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// oracleParse is the parser xmldb shipped before the single-pass scanner:
// encoding/xml's tokenizer feeding the same tree construction. It stays as
// the reference the differential tests hold Parse to, on both the accept or
// reject decision and the tree.
func oracleParse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var cur *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldb: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewNode(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.SetAttr(a.Name.Local, a.Value)
			}
			if cur == nil {
				if root != nil {
					return nil, fmt.Errorf("xmldb: parse: multiple root elements")
				}
				root = n
			} else {
				cur.AddChild(n)
			}
			cur = n
		case xml.EndElement:
			if cur == nil {
				return nil, fmt.Errorf("xmldb: parse: unbalanced end element %q", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			if cur != nil {
				s := string(t)
				if strings.TrimSpace(s) != "" {
					cur.Text += strings.TrimSpace(s)
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmldb: parse: empty document")
	}
	if cur != nil {
		return nil, fmt.Errorf("xmldb: parse: unterminated element %q", cur.Name)
	}
	return root, nil
}
