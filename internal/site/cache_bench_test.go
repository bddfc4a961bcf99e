package site

import (
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
	"irisnet/internal/xmldb"
)

// benchCacher builds a budgeted caching site that owns nothing, plus one
// sub-answer fragment per block of a database with 128 blocks of 9 spaces
// (1,280 cacheable units). The budget is 95% of what all of them weigh and
// every fragment has been merged once, so the site holds ~1.2k tracked
// units at the budget and every further merge evicts. The site is not
// started: no background pressure pass competes with the measured calls.
func benchCacher(b *testing.B) (*Site, []*xmldb.Node) {
	b.Helper()
	cfg := workload.DBConfig{Cities: 2, Neighborhoods: 4, Blocks: 16, Spaces: 9, Seed: 7}
	db := workload.Build(cfg)
	var frags []*xmldb.Node
	total := 0
	for c := 0; c < cfg.Cities; c++ {
		for n := 0; n < cfg.Neighborhoods; n++ {
			for k := 0; k < cfg.Blocks; k++ {
				bp := db.BlockPath(c, n, k)
				block := xmldb.FindByIDPath(db.Doc, bp)
				ans := fragment.NewStore(workload.RootName, workload.RootID)
				if err := ans.EnsureAncestors(db.Doc, bp); err != nil {
					b.Fatal(err)
				}
				if err := ans.InstallLocalInfo(bp, block, fragment.StatusComplete); err != nil {
					b.Fatal(err)
				}
				for _, sp := range block.IDableChildren() {
					if err := ans.InstallLocalInfo(bp.Child(sp.Name, sp.ID()), sp, fragment.StatusComplete); err != nil {
						b.Fatal(err)
					}
				}
				total += ans.CachedBytes()
				frags = append(frags, ans.Root)
			}
		}
	}

	clock := 1000.0
	registry := naming.NewRegistry()
	s := New(Config{
		Name:             "cacher",
		Service:          workload.Service,
		Net:              transport.NewSimNet(transport.SimConfig{}),
		DNS:              naming.NewClient(registry, workload.Service, time.Hour, nil),
		Registry:         registry,
		Schema:           db.Schema,
		Caching:          true,
		CacheBudgetBytes: int64(total) * 95 / 100,
		CPUSlots:         1,
		Clock:            func() float64 { clock++; return clock },
	}, workload.RootName, workload.RootID)
	s.Load(fragment.NewStore(workload.RootName, workload.RootID), nil)
	for i := 0; i < len(frags); i += 16 {
		if errs := s.mergeCache(frags[i : i+16]); errs != nil {
			b.Fatal(errs)
		}
	}
	if n := len(s.cache.snapshot()); n < 1100 || n > 1280 {
		b.Fatalf("benchmark premise broken: %d tracked units, want ~1.2k", n)
	}
	return s, frags
}

// BenchmarkCacheMissMerge measures what a cache miss costs the write path: a
// 16-entry batch answer (160 units) committed into a site holding ~1.2k
// tracked units at its budget, evictions included. The cost must follow the
// answer's size, not the number of units cached.
func BenchmarkCacheMissMerge(b *testing.B) {
	s, frags := benchCacher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i * 16 % len(frags)
		if errs := s.mergeCache(frags[at : at+16]); errs != nil {
			b.Fatal(errs)
		}
	}
	b.StopTimer()
	if got, budget := int64(s.CacheBytes()), s.cfg.CacheBudgetBytes; got > budget {
		b.Fatalf("cache at %d bytes, budget %d", got, budget)
	}
}

// BenchmarkTouchAnswer measures the residency bookkeeping every query of a
// budgeted site pays, hits included: refreshing the 160 units of a 16-block
// answer among ~1.2k tracked ones.
func BenchmarkTouchAnswer(b *testing.B) {
	s, frags := benchCacher(b)
	ans := fragment.NewStore(workload.RootName, workload.RootID)
	for _, f := range frags[len(frags)-16:] {
		if err := ans.MergeFragment(f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.touchAnswer(ans.Root, s.cfg.Clock())
	}
}
