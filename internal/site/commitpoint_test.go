package site

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// commitPointCalls names the steps only the commit point may take: append
// the WAL record and publish the version. The key is the selector's name,
// with the receiver dropped ("walAppend" matches s.walAppend).
var commitPointCalls = []string{"walAppend", "publishLocked"}

// TestOnlyCommitLockedReachesCommitPoint holds the write path's rule
// (DESIGN.md §9) as a source check: in the package's non-test files, only
// commitLocked refers to a commit-point step. A writer that logs or publishes
// on its own would make a store version that replay cannot rebuild.
func TestOnlyCommitLockedReachesCommitPoint(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			owner := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				owner = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				call := sel.Sel.Name
				for _, c := range commitPointCalls {
					if call != c {
						continue
					}
					if owner != "commitLocked" {
						t.Errorf("%s: %s outside commitLocked (in %q)", fset.Position(sel.Pos()), c, owner)
					}
					found[c] = true
				}
				return true
			})
		}
	}
	for _, c := range commitPointCalls {
		if !found[c] {
			t.Errorf("commitLocked no longer calls %s: update commitPointCalls", c)
		}
	}
}
