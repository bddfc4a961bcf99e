package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSimNetRoundTrip(t *testing.T) {
	n := NewSimNet(SimConfig{})
	echo := func(_ context.Context, p []byte) ([]byte, error) { return append([]byte("re:"), p...), nil }
	if err := n.Register("a", echo); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Call("a", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:hello" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestSimNetUnknownSite(t *testing.T) {
	n := NewSimNet(SimConfig{})
	if _, err := n.Call("ghost", nil); err == nil {
		t.Fatal("unknown site should error")
	}
}

func TestSimNetDuplicateRegister(t *testing.T) {
	n := NewSimNet(SimConfig{})
	h := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	if err := n.Register("a", h); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", h); err == nil {
		t.Fatal("duplicate register should error")
	}
	n.Unregister("a")
	if err := n.Register("a", h); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
}

func TestSimNetHandlerError(t *testing.T) {
	n := NewSimNet(SimConfig{})
	if err := n.Register("a", func(context.Context, []byte) ([]byte, error) { return nil, errors.New("boom") }); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("a", nil); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestSimNetLatency(t *testing.T) {
	n := NewSimNet(SimConfig{Latency: 5 * time.Millisecond})
	if err := n.Register("a", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := n.Call("a", nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 2x one-way latency", d)
	}
}

func TestSimNetConcurrent(t *testing.T) {
	n := NewSimNet(SimConfig{})
	var served atomic.Int64
	if err := n.Register("a", func(_ context.Context, p []byte) ([]byte, error) {
		served.Add(1)
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				msg := []byte(fmt.Sprintf("m%d-%d", i, j))
				resp, err := n.Call("a", msg)
				if err != nil || !bytes.Equal(resp, msg) {
					t.Errorf("call: %v %q", err, resp)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if served.Load() != 32*50 {
		t.Fatalf("served %d, want %d", served.Load(), 32*50)
	}
}

func TestCPUSerializes(t *testing.T) {
	cpu := NewCPU(1)
	var inCritical atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpu.Do(func() {
				cur := inCritical.Add(1)
				if cur > maxSeen.Load() {
					maxSeen.Store(cur)
				}
				time.Sleep(time.Millisecond)
				inCritical.Add(-1)
			})
		}()
	}
	wg.Wait()
	if maxSeen.Load() != 1 {
		t.Fatalf("max concurrency in 1-slot CPU = %d", maxSeen.Load())
	}
}

func TestCPUMultipleSlots(t *testing.T) {
	cpu := NewCPU(4)
	var inCritical atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpu.Acquire()
			cur := inCritical.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inCritical.Add(-1)
			cpu.Release()
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 4 {
		t.Fatalf("max concurrency = %d, want <= 4", m)
	}
}

func TestTCPNetRoundTrip(t *testing.T) {
	net := NewTCPNet(map[string]string{"srv": "127.0.0.1:0"})
	if err := net.Register("srv", func(_ context.Context, p []byte) ([]byte, error) {
		return append([]byte("got:"), p...), nil
	}); err != nil {
		t.Fatal(err)
	}
	defer net.Unregister("srv")
	// Client uses the resolved address.
	addr, ok := net.Addr("srv")
	if !ok {
		t.Fatal("no bound address")
	}
	client := NewTCPNet(map[string]string{"srv": addr})
	for i := 0; i < 10; i++ {
		resp, err := client.Call("srv", []byte(fmt.Sprintf("ping%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != fmt.Sprintf("got:ping%d", i) {
			t.Fatalf("resp = %q", resp)
		}
	}
}

func TestTCPNetHandlerError(t *testing.T) {
	net := NewTCPNet(map[string]string{"srv": "127.0.0.1:0"})
	if err := net.Register("srv", func(_ context.Context, p []byte) ([]byte, error) {
		return nil, errors.New("remote failure")
	}); err != nil {
		t.Fatal(err)
	}
	defer net.Unregister("srv")
	addr, _ := net.Addr("srv")
	client := NewTCPNet(map[string]string{"srv": addr})
	_, err := client.Call("srv", []byte("x"))
	if err == nil {
		t.Fatal("expected remote error")
	}
}

func TestTCPNetUnknownSite(t *testing.T) {
	client := NewTCPNet(nil)
	if _, err := client.Call("nowhere", nil); err == nil {
		t.Fatal("unknown site should error")
	}
}

func TestTCPNetConcurrentClients(t *testing.T) {
	net := NewTCPNet(map[string]string{"srv": "127.0.0.1:0"})
	if err := net.Register("srv", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	defer net.Unregister("srv")
	addr, _ := net.Addr("srv")
	client := NewTCPNet(map[string]string{"srv": addr})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				msg := []byte(fmt.Sprintf("%d/%d", i, j))
				resp, err := client.Call("srv", msg)
				if err != nil || !bytes.Equal(resp, msg) {
					t.Errorf("call %d/%d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPNetPoolBoundedUnderChurn(t *testing.T) {
	net := NewTCPNet(map[string]string{"srv": "127.0.0.1:0"})
	if err := net.Register("srv", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	defer net.Unregister("srv")
	addr, _ := net.Addr("srv")
	client := NewTCPNet(map[string]string{"srv": addr})
	client.MaxIdlePerPeer = 3

	// Churn: many more concurrent callers than the idle cap, over several
	// rounds so connections are repeatedly taken from and returned to the
	// pool. The free list must never exceed the cap.
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 12; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				msg := []byte(fmt.Sprintf("m%d", i))
				resp, err := client.Call("srv", msg)
				if err != nil || !bytes.Equal(resp, msg) {
					t.Errorf("call %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		client.mu.RLock()
		pool := client.pools["srv"]
		client.mu.RUnlock()
		if pool == nil {
			t.Fatal("no pool built for srv")
		}
		if n := pool.idle(); n > 3 {
			t.Fatalf("round %d: %d idle conns pooled, cap 3", round, n)
		}
	}
}

func TestTCPNetExpiredContextNotPooled(t *testing.T) {
	release := make(chan struct{})
	net := NewTCPNet(map[string]string{"srv": "127.0.0.1:0"})
	if err := net.Register("srv", func(_ context.Context, p []byte) ([]byte, error) {
		<-release
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	defer net.Unregister("srv")
	addr, _ := net.Addr("srv")
	client := NewTCPNet(map[string]string{"srv": addr})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := client.CallContext(ctx, "srv", []byte("x")); err == nil {
		t.Fatal("expected deadline error")
	}
	close(release)
	client.mu.RLock()
	pool := client.pools["srv"]
	client.mu.RUnlock()
	if pool != nil && pool.idle() != 0 {
		t.Fatalf("%d conns pooled after an expired call, want 0", pool.idle())
	}
}

func TestTCPNetCloseDrainsConnections(t *testing.T) {
	release := make(chan struct{})
	srv := NewTCPNet(map[string]string{"srv": "127.0.0.1:0"})
	if err := srv.Register("srv", func(_ context.Context, p []byte) ([]byte, error) {
		if string(p) == "slow" {
			<-release
		}
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.Unregister("srv")
	addr, _ := srv.Addr("srv")
	client := NewTCPNet(map[string]string{"srv": addr})

	// Build up idle connections with a burst of concurrent calls.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call("srv", []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if client.IdleConns() == 0 {
		t.Fatal("expected pooled idle connections before Close")
	}

	// One call still in flight while the transport closes: its connection
	// must be closed on return, not re-pooled.
	inflight := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := client.Call("srv", []byte("slow"))
		inflight <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the slow call check out its conn

	client.Close()
	if n := client.IdleConns(); n != 0 {
		t.Fatalf("%d idle conns after Close, want 0", n)
	}
	if _, err := client.Call("srv", []byte("late")); err == nil {
		t.Fatal("calls after Close should fail")
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight call during Close: %v", err)
	}
	if n := client.IdleConns(); n != 0 {
		t.Fatalf("%d idle conns after in-flight call returned, want 0 (conn should be closed, not pooled)", n)
	}

	// Close is idempotent and also stops listeners on the serving side.
	client.Close()
	srv.Close()
	if _, err := NewTCPNet(map[string]string{"srv": addr}).Call("srv", []byte("x")); err == nil {
		t.Fatal("server listener should be closed after Close")
	}
}

func TestTCPNetRemovePeerDrainsPool(t *testing.T) {
	srv := NewTCPNet(map[string]string{"srv": "127.0.0.1:0"})
	if err := srv.Register("srv", func(_ context.Context, p []byte) ([]byte, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	defer srv.Unregister("srv")
	addr, _ := srv.Addr("srv")
	client := NewTCPNet(map[string]string{"srv": addr})
	if _, err := client.Call("srv", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if client.IdleConns() == 0 {
		t.Fatal("expected a pooled connection before RemovePeer")
	}
	client.RemovePeer("srv")
	if n := client.IdleConns(); n != 0 {
		t.Fatalf("%d idle conns after RemovePeer, want 0", n)
	}
	if _, err := client.Call("srv", nil); err == nil {
		t.Fatal("removed peer should be unknown")
	}
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("some payload with \x00 binary")
	if err := writeFrame(&buf, 7, payload); err != nil {
		t.Fatal(err)
	}
	status, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if status != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("decoded status=%d payload=%q", status, got)
	}
	// Oversized frame rejected.
	var big bytes.Buffer
	var hdr [5]byte
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	hdr[4] = 0xFF
	big.Write(hdr[:])
	if _, _, err := readFrame(&big); err == nil {
		t.Fatal("oversized frame should be rejected")
	}
}

func TestSimNetTrafficAccounting(t *testing.T) {
	n := NewSimNet(SimConfig{})
	echo := func(_ context.Context, p []byte) ([]byte, error) { return append([]byte("re:"), p...), nil }
	if err := n.Register("a", echo); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Call("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// 5 request bytes + 8 response bytes, one completed call.
	if got := n.BytesTotal(); got != 13 {
		t.Fatalf("BytesTotal = %d, want 13", got)
	}
	if got := n.MessagesTotal(); got != 1 {
		t.Fatalf("MessagesTotal = %d, want 1", got)
	}
	// A failed call counts nothing.
	if _, err := n.Call("nowhere", nil); err == nil {
		t.Fatal("expected error")
	}
	if got := n.MessagesTotal(); got != 1 {
		t.Fatalf("MessagesTotal after failure = %d, want 1", got)
	}
	n.ResetTraffic()
	if n.BytesTotal() != 0 || n.MessagesTotal() != 0 {
		t.Fatal("ResetTraffic did not zero the counters")
	}
}
