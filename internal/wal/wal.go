// Package wal implements the per-site write-ahead log used by the
// durability layer: an append-only sequence of CRC-framed records with a
// monotone log sequence number (LSN), segmented into files so checkpoints
// can truncate the prefix that is already reflected in a snapshot.
//
// Frame layout (little-endian):
//
//	4 bytes  payload length
//	8 bytes  LSN
//	4 bytes  CRC-32C (Castagnoli) of the payload
//	N bytes  payload
//
// Records carry strictly consecutive LSNs (+1 per record, across segment
// boundaries). Replay stops at the first frame that fails any of: short
// header, oversized length, CRC mismatch, LSN discontinuity, short payload.
// Everything before that point is the durable prefix; Open truncates the
// torn tail in place and deletes any later segments so a recovered log is
// immediately appendable.
//
// Fsync policy: Sync(lsn) in the default (interval == 0) mode provides
// group commit — concurrent callers pile up behind one fsync and all
// observe it; with a positive FsyncInterval, Sync returns immediately and a
// background loop fsyncs on a timer (relaxed durability).
//
// The first failed write or fsync is latched: a torn frame may now sit at
// the tail, and replay stops there, so every later Append, Sync of a record
// not yet durable, and Rotate returns that error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	headerSize = 16
	// MaxRecord bounds a single payload; anything larger in a header is
	// treated as corruption rather than an allocation request.
	MaxRecord = 64 << 20

	segPrefix = "wal-"
	segSuffix = ".log"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed or abandoned log.
var ErrClosed = errors.New("wal: closed")

// Options tune durability and expose observation hooks.
type Options struct {
	// FsyncInterval > 0 switches to relaxed durability: Sync returns
	// immediately and a background loop fsyncs on this period. Zero means
	// strict group commit: Sync blocks until the record is on disk.
	FsyncInterval time.Duration
	// OnAppend, if set, is called with the framed record size after each
	// successful append.
	OnAppend func(bytes int)
	// OnFsync, if set, is called after each fsync of the active segment.
	OnFsync func()
}

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options

	// Lock order: syncMu before mu. Rotate holds both for its whole body
	// so Sync and Append can never race against a closing fd.
	mu       sync.Mutex
	f        *os.File
	segStart uint64 // first LSN of the active segment
	nextLSN  uint64
	closed   bool
	err      error // first write or fsync failure, latched

	syncMu sync.Mutex
	synced atomic.Uint64 // highest LSN known durable

	stop chan struct{}
	wg   sync.WaitGroup
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open scans dir for segments, validates the record chain, truncates the
// first torn or corrupt frame (and deletes every later segment), and
// returns a log ready to append at lastValid+1. A missing or empty
// directory yields an empty log starting at LSN 1.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}

	// Validate segments in order; on the first invalid frame, truncate that
	// segment to its valid prefix and drop all later segments.
	expect := uint64(1)
	if len(segs) > 0 {
		expect = segs[0]
	}
	for i, first := range segs {
		if first != expect {
			// Gap between segments: everything from here is unusable.
			for _, s := range segs[i:] {
				if err := os.Remove(filepath.Join(dir, segName(s))); err != nil {
					return nil, err
				}
			}
			segs = segs[:i]
			break
		}
		path := filepath.Join(dir, segName(first))
		last, end, scanErr := scanSegment(path, first)
		if scanErr != nil {
			return nil, scanErr
		}
		if last < first { // empty or fully-torn segment
			if i == 0 {
				// Keep an empty first segment: reuse it as the active one.
				if err := os.Truncate(path, 0); err != nil {
					return nil, err
				}
				expect = first
				segs = segs[:1]
				break
			}
			for _, s := range segs[i:] {
				if err := os.Remove(filepath.Join(dir, segName(s))); err != nil {
					return nil, err
				}
			}
			segs = segs[:i]
			break
		}
		expect = last + 1
		if end >= 0 {
			// A torn tail inside this segment invalidates later segments.
			if err := os.Truncate(path, end); err != nil {
				return nil, err
			}
			for _, s := range segs[i+1:] {
				if err := os.Remove(filepath.Join(dir, segName(s))); err != nil {
					return nil, err
				}
			}
			segs = segs[:i+1]
			break
		}
	}

	if len(segs) == 0 {
		l.segStart = 1
		l.nextLSN = 1
		f, err := createSegment(dir, 1)
		if err != nil {
			return nil, err
		}
		l.f = f
	} else {
		active := segs[len(segs)-1]
		path := filepath.Join(dir, segName(active))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
		l.segStart = active
		l.nextLSN = expect
		if expect > 1 {
			// Everything that survived the scan is on disk already.
			l.synced.Store(expect - 1)
		}
	}

	if opts.FsyncInterval > 0 {
		l.stop = make(chan struct{})
		l.wg.Add(1)
		go l.fsyncLoop()
	}
	return l, nil
}

func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// scanSegment walks the frames of one segment starting at LSN first.
// It returns the last valid LSN (first-1 if none), and end >= 0 when a torn
// or corrupt frame was found at byte offset end (the valid prefix length);
// end == -1 means the whole segment is valid.
func scanSegment(path string, first uint64) (last uint64, end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var (
		off    int64
		hdr    [headerSize]byte
		expect = first
	)
	last = first - 1
	for {
		n, rerr := io.ReadFull(f, hdr[:])
		if rerr == io.EOF {
			return last, -1, nil
		}
		if rerr == io.ErrUnexpectedEOF || n < headerSize {
			return last, off, nil
		}
		if rerr != nil {
			return 0, 0, rerr
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		lsn := binary.LittleEndian.Uint64(hdr[4:12])
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		if length > MaxRecord || lsn != expect {
			return last, off, nil
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(f, payload); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return last, off, nil
			}
			return 0, 0, rerr
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return last, off, nil
		}
		off += headerSize + int64(length)
		last = lsn
		expect = lsn + 1
	}
}

func createSegment(dir string, first uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(first)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append frames payload and writes it to the active segment with the next
// LSN. The record is buffered by the OS but not yet durable; call Sync to
// wait for it.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds %d", len(payload), MaxRecord)
	}
	buf := make([]byte, headerSize+len(payload))

	l.mu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.nextLSN
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:12], lsn)
	binary.LittleEndian.PutUint32(buf[12:16], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		l.err = err
		l.mu.Unlock()
		return 0, err
	}
	l.nextLSN = lsn + 1
	l.mu.Unlock()

	if l.opts.OnAppend != nil {
		l.opts.OnAppend(len(buf))
	}
	return lsn, nil
}

// Sync blocks until the record at lsn is durable. Under a positive
// FsyncInterval it returns immediately (relaxed mode) unless the log has
// failed. Concurrent callers in strict mode coalesce into one fsync (group
// commit).
func (l *Log) Sync(lsn uint64) error {
	if l.synced.Load() >= lsn {
		return nil
	}
	if l.opts.FsyncInterval > 0 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= lsn {
		return nil // a concurrent Sync covered us
	}
	return l.fsyncLocked()
}

// fsyncLocked requires syncMu held. It snapshots the current append frontier,
// fsyncs the active segment, and publishes the new durable watermark.
func (l *Log) fsyncLocked() error {
	l.mu.Lock()
	if err := l.unusableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	f := l.f
	top := l.nextLSN - 1
	l.mu.Unlock()

	if err := f.Sync(); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		return err
	}
	l.synced.Store(top)
	if l.opts.OnFsync != nil {
		l.opts.OnFsync()
	}
	return nil
}

func (l *Log) fsyncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.syncMu.Lock()
			if l.synced.Load() < l.frontier() {
				_ = l.fsyncLocked()
			}
			l.syncMu.Unlock()
		}
	}
}

// unusableLocked requires mu held. It returns why the log takes no more
// writes: closed, or a latched failure.
func (l *Log) unusableLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.err
}

func (l *Log) frontier() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// LastLSN returns the LSN of the most recently appended record (0 if none).
func (l *Log) LastLSN() uint64 {
	return l.frontier()
}

// Rotate fsyncs and closes the active segment and opens a fresh one whose
// name is the next LSN. It returns the boundary: the last LSN contained in
// the sealed segments. A checkpoint that captures state at the boundary may
// later RemoveThrough(boundary).
func (l *Log) Rotate() (uint64, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.unusableLocked(); err != nil {
		// A fresh segment after a torn frame would be deleted on Open.
		return 0, err
	}
	boundary := l.nextLSN - 1
	if l.nextLSN == l.segStart {
		// The active segment is empty (nothing appended since the last
		// rotation); sealing it would recreate a segment of the same name.
		return boundary, nil
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	f, err := createSegment(l.dir, l.nextLSN)
	if err != nil {
		// The log is unusable without an active segment; mark closed.
		l.closed = true
		return 0, err
	}
	l.f = f
	l.segStart = l.nextLSN
	l.synced.Store(boundary)
	if l.opts.OnFsync != nil {
		l.opts.OnFsync()
	}
	return boundary, nil
}

// Replay invokes fn for every valid record with LSN > from, in order,
// stopping cleanly at the first invalid frame. It reads the segment files
// directly and may run concurrently with appends to the active segment
// (the scan simply stops at whatever tail it sees).
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for _, first := range segs {
		stop, err := replaySegment(filepath.Join(l.dir, segName(first)), first, from, fn)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

func replaySegment(path string, first, from uint64, fn func(uint64, []byte) error) (stop bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	expect := first
	for {
		if _, rerr := io.ReadFull(f, hdr[:]); rerr != nil {
			if rerr == io.EOF {
				return false, nil
			}
			if rerr == io.ErrUnexpectedEOF {
				return true, nil
			}
			return false, rerr
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		lsn := binary.LittleEndian.Uint64(hdr[4:12])
		crc := binary.LittleEndian.Uint32(hdr[12:16])
		if length > MaxRecord || lsn != expect {
			return true, nil
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(f, payload); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return true, nil
			}
			return false, rerr
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return true, nil
		}
		expect = lsn + 1
		if lsn <= from {
			continue
		}
		if err := fn(lsn, payload); err != nil {
			return false, err
		}
	}
}

// RemoveThrough deletes sealed segments whose records are all <= lsn. The
// active segment is never removed. Safe to call concurrently with appends.
func (l *Log) RemoveThrough(lsn uint64) error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	l.mu.Lock()
	active := l.segStart
	l.mu.Unlock()
	for i, first := range segs {
		if first >= active || i+1 >= len(segs) {
			break
		}
		// Segment i holds LSNs [first, segs[i+1]-1].
		if segs[i+1]-1 > lsn {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segName(first))); err != nil {
			return err
		}
	}
	return nil
}

// Close fsyncs the active segment and releases the log.
func (l *Log) Close() error {
	l.stopLoop()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Abandon releases the log WITHOUT fsyncing, simulating a crash: whatever
// the OS had not yet flushed is at the mercy of the page cache. Used by
// tests and Site.Crash.
func (l *Log) Abandon() {
	l.stopLoop()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.f.Close()
}

func (l *Log) stopLoop() {
	if l.stop != nil {
		l.syncMu.Lock()
		select {
		case <-l.stop:
		default:
			close(l.stop)
		}
		l.syncMu.Unlock()
		l.wg.Wait()
	}
}
