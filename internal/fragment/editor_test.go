package fragment

import (
	"testing"

	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// TestInstallLocalIDInfoRejectsBeforeEditing hands InstallLocalIDInfo an
// info whose non-IDable child follows an IDable one. The call must fail and
// leave the store as it was: no stub for the IDable child, and no stubs for
// the missing path steps either.
func TestInstallLocalIDInfoRejectsBeforeEditing(t *testing.T) {
	s := NewStore("usRegion", "NE")
	if err := s.InstallLocalIDInfo(spath(), localIDInfoStub("usRegion", "NE", "city", "a")); err != nil {
		t.Fatal(err)
	}
	size, before := s.Size(), s.Root.String()
	info := localIDInfoStub("block", "1", "parkingSpace", "1")
	info.AddChild(xmldb.NewNode("note"))
	if err := s.InstallLocalIDInfo(spath("city", "a", "block", "1"), info); err == nil {
		t.Fatal("local ID info with a non-IDable child accepted")
	}
	if got, after := s.Size(), s.Root.String(); got != size || after != before {
		t.Fatalf("rejected call edited the store: %d nodes %s, was %d nodes %s", got, after, size, before)
	}
}

// recordedAnswers returns the wire fragments an owner answers subtree
// queries for the first n blocks of PaperSmall with: the local ID
// information of every ancestor, then each block and its parking spaces
// complete. They are parsed back from their serialized form, as a
// querying site receives them.
func recordedAnswers(tb testing.TB, n int) []*xmldb.Node {
	tb.Helper()
	db := workload.Build(workload.PaperSmall())
	stores, _, err := Partition(db.Doc, NewAssignment("solo"))
	if err != nil {
		tb.Fatal(err)
	}
	snap := stores["solo"].Seal()
	var out []*xmldb.Node
	for _, p := range db.BlockPaths[:n] {
		ans, err := BuildSync(snap, p)
		if err != nil {
			tb.Fatal(err)
		}
		wire, err := xmldb.ParseString(ans.Root.StringSized(ans.Size()))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, wire)
	}
	return out
}

// BenchmarkAnswerMerge measures answer assembly: four recorded block
// answers (84 local-information units) spliced into a fresh mutable store,
// the merge a site's gather loop runs on every query that fetched anything.
func BenchmarkAnswerMerge(b *testing.B) {
	frags := recordedAnswers(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans := NewStore(workload.RootName, workload.RootID)
		for _, f := range frags {
			if err := ans.MergeFragment(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}
