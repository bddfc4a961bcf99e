package xmldb

import (
	"fmt"
	"strings"
	"testing"
)

// benchDoc builds a tree shaped like a sensor-database fragment: fan IDable
// children per level, each leaf carrying a couple of fields and attributes.
func benchDoc(levels, fan int) *Node {
	root := NewElem("usRegion", "NE")
	var grow func(n *Node, depth int)
	grow = func(n *Node, depth int) {
		if depth == levels {
			av := n.AddChild(NewNode("available"))
			av.Text = "yes"
			pr := n.AddChild(NewNode("price"))
			pr.Text = "1.25"
			n.SetAttr("meter", "ok")
			return
		}
		for i := 0; i < fan; i++ {
			c := n.AddChild(NewElem("node", fmt.Sprintf("%d-%d", depth, i)))
			grow(c, depth+1)
		}
	}
	grow(root, 0)
	return root
}

func BenchmarkSerialize(b *testing.B) {
	doc := benchDoc(4, 8) // ~4700 elements
	n := doc.CountNodes()
	b.Run("sized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := doc.StringSized(n)
			if len(s) == 0 {
				b.Fatal("empty serialization")
			}
		}
	})
	b.Run("unsized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = doc.String()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_ = doc.StringSized(n)
			}
		})
	})
}

// BenchmarkParse reads back what BenchmarkSerialize writes, so the two
// directions of the wire format are gated on the same document.
func BenchmarkParse(b *testing.B) {
	text := benchDoc(4, 8).String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerializeEscaping(b *testing.B) {
	// Text that needs escaping exercises the slow path of the single-scan
	// escaper; mostly-clean text exercises the bulk-copy fast path.
	clean := benchDoc(3, 8)
	clean.Walk(func(n *Node) bool {
		if n.Text != "" {
			n.Text = strings.Repeat("plain text with no special characters ", 3)
		}
		return true
	})
	dirty := benchDoc(3, 8)
	dirty.Walk(func(n *Node) bool {
		if n.Text != "" {
			n.Text = strings.Repeat(`a<b&c>"d'e `, 10)
		}
		return true
	})
	b.Run("clean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = clean.String()
		}
	})
	b.Run("escaped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = dirty.String()
		}
	})
}
