package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func collect(t *testing.T, l *Log, from uint64) (lsns []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(from, func(lsn uint64, p []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return lsns, payloads
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Sync(100); err != nil {
		t.Fatal(err)
	}
	lsns, got := collect(t, l, 0)
	if len(lsns) != 100 || lsns[0] != 1 || lsns[99] != 100 {
		t.Fatalf("replayed %d records, first/last %v", len(lsns), lsns)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Replay from the middle skips the prefix.
	lsns, _ = collect(t, l, 50)
	if len(lsns) != 50 || lsns[0] != 51 {
		t.Fatalf("replay from 50: %d records, first %v", len(lsns), lsns[:1])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsn, err := l2.Append([]byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("resumed lsn = %d, want 11", lsn)
	}
	if got := l2.LastLSN(); got != 11 {
		t.Fatalf("LastLSN = %d, want 11", got)
	}
}

// A torn final record (partial header or partial payload) is truncated on
// Open and appends continue from the last valid LSN.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{3, headerSize + 2} { // mid-header, mid-payload
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := Open(dir, Options{})
			for i := 0; i < 5; i++ {
				if _, err := l.Append([]byte("aaaaaaaa")); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(5); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segName(1))
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			full := fi.Size()
			// Simulate a crash mid-write of record 6: append garbage tail.
			l.Abandon()
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(bytes.Repeat([]byte{0x7}, cut)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if fi, _ := os.Stat(seg); fi.Size() != full {
				t.Fatalf("segment size after recovery = %d, want %d", fi.Size(), full)
			}
			lsn, err := l2.Append([]byte("next"))
			if err != nil {
				t.Fatal(err)
			}
			if lsn != 6 {
				t.Fatalf("post-recovery lsn = %d, want 6", lsn)
			}
			lsns, _ := collect(t, l2, 0)
			if len(lsns) != 6 {
				t.Fatalf("replayed %d records, want 6", len(lsns))
			}
		})
	}
}

// Flipping a byte mid-log stops both recovery and replay at the valid
// prefix; later records (even intact ones) are discarded so the LSN chain
// never has holes.
func TestCRCCorruptionMidLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one payload byte of record 4 (records are uniform size).
	recSize := len(data) / 10
	data[3*recSize+headerSize] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsns, _ := collect(t, l2, 0)
	if len(lsns) != 3 || lsns[len(lsns)-1] != 3 {
		t.Fatalf("replay after corruption = %v, want LSNs 1..3", lsns)
	}
	if lsn, _ := l2.Append([]byte("fresh")); lsn != 4 {
		t.Fatalf("append after corruption lsn = %d, want 4", lsn)
	}
}

func TestRotateAndRemoveThrough(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("seg1")); err != nil {
			t.Fatal(err)
		}
	}
	b1, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if b1 != 5 {
		t.Fatalf("boundary = %d, want 5", b1)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("seg2")); err != nil {
			t.Fatal(err)
		}
	}
	b2, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if b2 != 10 {
		t.Fatalf("boundary = %d, want 10", b2)
	}
	if _, err := l.Append([]byte("seg3")); err != nil {
		t.Fatal(err)
	}

	segs, _ := listSegments(dir)
	if len(segs) != 3 {
		t.Fatalf("segments = %v, want 3", segs)
	}
	// Records through b1 are checkpointed: only segment 1 is removable.
	if err := l.RemoveThrough(b1); err != nil {
		t.Fatal(err)
	}
	segs, _ = listSegments(dir)
	if len(segs) != 2 || segs[0] != 6 {
		t.Fatalf("segments after RemoveThrough(%d) = %v", b1, segs)
	}
	lsns, _ := collect(t, l, b1)
	if len(lsns) != 6 || lsns[0] != 6 || lsns[5] != 11 {
		t.Fatalf("replay after prune = %v", lsns)
	}

	// Reopen mid-chain: LSNs continue from 11.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if lsn, _ := l2.Append([]byte("resumed")); lsn != 12 {
		t.Fatalf("lsn after prune+reopen = %d, want 12", lsn)
	}
}

// Abandon (crash simulation) without any Sync may lose the tail but must
// never corrupt the prefix or break appendability.
func TestAbandonThenReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("volatile")); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon()
	if _, err := l.Append([]byte("after")); err != ErrClosed {
		t.Fatalf("append after Abandon = %v, want ErrClosed", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsns, _ := collect(t, l2, 0)
	// In-process close keeps the OS buffer, so typically nothing is lost;
	// whatever survived must be a gap-free prefix.
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("replay gap at %d: %v", i, lsns)
		}
	}
	if lsn, _ := l2.Append([]byte("next")); lsn != uint64(len(lsns)+1) {
		t.Fatalf("resume lsn = %d after %d survivors", lsn, len(lsns))
	}
}

// TestWriteFailureLatches fails one append by swapping the active segment
// for a read-only handle. Restoring the handle must not make the log usable
// again: the failed write may have left a torn frame at the tail.
func TestWriteFailureLatches(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}

	rw := l.f
	ro, err := os.Open(rw.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	l.f = ro
	_, first := l.Append([]byte("fails"))
	if first == nil {
		t.Fatal("append to a read-only segment succeeded")
	}
	l.f = rw

	if _, err := l.Append([]byte("after")); err != first {
		t.Fatalf("append after a failed write = %v, want the latched %v", err, first)
	}
	if err := l.Sync(lsn + 1); err != first {
		t.Fatalf("sync after a failed write = %v, want the latched %v", err, first)
	}
	if _, err := l.Rotate(); err != first {
		t.Fatalf("rotate after a failed write = %v, want the latched %v", err, first)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatalf("sync of a record made durable before the failure: %v", err)
	}
}

func TestConcurrentAppendSync(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{})
	defer l.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lsn, err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Sync(lsn); err != nil {
					t.Errorf("sync: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	lsns, _ := collect(t, l, 0)
	if len(lsns) != 400 {
		t.Fatalf("replayed %d records, want 400", len(lsns))
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsn hole at %d: %d", i, lsn)
		}
	}
}

func TestRelaxedFsyncInterval(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append([]byte("relaxed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); err != nil { // must not block
		t.Fatal(err)
	}
	// The background loop eventually advances the durable watermark.
	deadline := time.Now().Add(2 * time.Second)
	for l.synced.Load() < lsn {
		if time.Now().After(deadline) {
			t.Fatal("background fsync never advanced the watermark")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	// Relaxed mode isolates append cost from fsync latency, which is what
	// the hot commit path pays when the interval knob is set.
	l, err := Open(dir, Options{FsyncInterval: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("s"), 256)
	b.SetBytes(int64(len(payload) + headerSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("s"), 256)
	const records = 4096
	for i := 0; i < records; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Sync(records); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(records * (len(payload) + headerSize)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(0, func(uint64, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d, want %d", n, records)
		}
	}
	b.StopTimer()
	l.Close()
}
