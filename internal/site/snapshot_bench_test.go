package site

import (
	"strconv"
	"testing"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
)

// benchSite builds one site owning an entire small database, so queries are
// answered from the local snapshot with no network fan-out: the benchmark
// isolates the snapshot-acquire + evaluate + serialize path.
func benchSite(b *testing.B) (*Site, *workload.DB, *transport.SimNet) {
	b.Helper()
	cfg := workload.DBConfig{Cities: 2, Neighborhoods: 2, Blocks: 4, Spaces: 4, Seed: 7}
	db := workload.Build(cfg)
	assign := fragment.NewAssignment("solo")
	net := transport.NewSimNet(transport.SimConfig{})
	registry := naming.NewRegistry()
	s := New(Config{
		Name:     "solo",
		Service:  workload.Service,
		Net:      net,
		DNS:      naming.NewClient(registry, workload.Service, time.Hour, nil),
		Registry: registry,
		Schema:   db.Schema,
		CPUSlots: 8,
		Clock:    func() float64 { return 1000 },
	}, workload.RootName, workload.RootID)
	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		b.Fatal(err)
	}
	s.Load(stores["solo"], owned["solo"])
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	b.Cleanup(func() { s.Stop() })
	return s, db, net
}

func benchQuery(b *testing.B, net *transport.SimNet, q string) {
	b.Helper()
	msg := &Message{Kind: KindQuery, Query: q}
	respB, err := net.Call("solo", msg.Encode())
	if err != nil {
		b.Fatal(err)
	}
	resp, err := DecodeMessage(respB)
	if err != nil {
		b.Fatal(err)
	}
	if e := resp.AsError(); e != nil {
		b.Fatal(e)
	}
}

// BenchmarkSnapshotQuery measures read-only query throughput against the
// published snapshot (one atomic load per query, no locks). The one
// sub-benchmark keeps the name perf_gate.sh requires.
func BenchmarkSnapshotQuery(b *testing.B) {
	b.Run("snapshot", func(b *testing.B) {
		_, db, net := benchSite(b)
		q := db.BlockQuery(0, 0, 0)
		benchQuery(b, net, q) // warm the plan cache
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchQuery(b, net, q)
			}
		})
	})
}

// BenchmarkConcurrentQueryUpdate runs queries while a background writer
// streams sensor updates at a fixed offered rate: the readers never block
// on the writer.
func BenchmarkConcurrentQueryUpdate(b *testing.B) {
	b.Run("snapshot", func(b *testing.B) {
		_, db, net := benchSite(b)
		q := db.BlockQuery(0, 0, 0)
		benchQuery(b, net, q)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(500 * time.Microsecond) // ~2000 updates/sec offered
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				target := db.SpacePaths[i%len(db.SpacePaths)]
				msg := &Message{Kind: KindUpdate, Path: target.String(),
					Fields: map[string]string{"available": strconv.Itoa(i)}}
				if _, err := net.Call("solo", msg.Encode()); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchQuery(b, net, q)
			}
		})
		b.StopTimer()
		close(stop)
		<-done
	})
}

// BenchmarkUpdateApply measures the write path: one copy-on-write
// transaction (path copy + publish) per update.
func BenchmarkUpdateApply(b *testing.B) {
	_, db, net := benchSite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := db.SpacePaths[i%len(db.SpacePaths)]
		msg := &Message{Kind: KindUpdate, Path: target.String(),
			Fields: map[string]string{"available": strconv.Itoa(i)}}
		if _, err := net.Call("solo", msg.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}
