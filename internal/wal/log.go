package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

// Log is a node's write-ahead log manager. Records are framed as
// [uint32 length][uint32 crc32][body]; a record's LSN is its byte offset in
// the file plus one (so LSN 0 means "none"). Appends go to an in-memory
// tail that Flush forces to disk; the buffer manager calls FlushUpTo before
// evicting a dirty page (the write-ahead rule).
type Log struct {
	mu         sync.Mutex //lint:lockorder wal.log
	f          *os.File
	fileEnd    uint64 // durable bytes
	tail       []byte // appended but not yet flushed
	nextOff    uint64 // fileEnd + len(tail)
	flushedLSN uint64
	lastCkpt   uint64 // LSN of the most recent checkpoint record

	appends atomic.Int64 // records appended (read by the metrics registry)
	flushes atomic.Int64 // fsyncs performed
}

const frameHeader = 8

// Open opens (or creates) the log file at path and scans it to find the
// durable end, truncating any torn record at the tail.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f}
	end, lastCkpt, err := l.scanEnd()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(int64(end)); err != nil {
		f.Close()
		return nil, err
	}
	l.fileEnd = end
	l.nextOff = end
	l.flushedLSN = end
	l.lastCkpt = lastCkpt
	return l, nil
}

// scanEnd walks the file validating frames, returning the end of the last
// valid record and the LSN of the last checkpoint seen.
func (l *Log) scanEnd() (uint64, uint64, error) {
	st, err := l.f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := uint64(st.Size())
	var off uint64
	var lastCkpt uint64
	var hdr [frameHeader]byte
	for off+frameHeader <= size {
		if _, err := l.f.ReadAt(hdr[:], int64(off)); err != nil {
			break
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 || off+frameHeader+uint64(length) > size {
			break
		}
		body := make([]byte, length)
		if _, err := l.f.ReadAt(body, int64(off+frameHeader)); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) != crc {
			break // torn write at the tail
		}
		if RecType(body[0]) == RecCheckpoint {
			lastCkpt = off + 1
		}
		off += frameHeader + uint64(length)
	}
	return off, lastCkpt, nil
}

// Append adds a record to the log and assigns its LSN. The record is not
// durable until Flush/FlushUpTo covers it.
func (l *Log) Append(r *Record) uint64 {
	body := r.encode()
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.nextOff + 1
	r.LSN = lsn
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	l.tail = append(l.tail, hdr[:]...)
	l.tail = append(l.tail, body...)
	l.nextOff += frameHeader + uint64(len(body))
	if r.Type == RecCheckpoint {
		l.lastCkpt = lsn
	}
	l.appends.Add(1)
	return lsn
}

// Appends returns the number of records appended since Open.
func (l *Log) Appends() int64 { return l.appends.Load() }

// Flushes returns the number of fsyncs performed since Open.
func (l *Log) Flushes() int64 { return l.flushes.Load() }

// Flush forces the whole tail to disk.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

func (l *Log) flushLocked() error {
	if len(l.tail) == 0 {
		return nil
	}
	if _, err := l.f.WriteAt(l.tail, int64(l.fileEnd)); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.flushes.Add(1)
	l.fileEnd = l.nextOff
	l.tail = l.tail[:0]
	l.flushedLSN = l.fileEnd
	return nil
}

// FlushUpTo ensures every record with LSN ≤ lsn is durable.
func (l *Log) FlushUpTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn == 0 || lsn <= l.flushedLSN {
		return nil
	}
	return l.flushLocked()
}

// LastCheckpointLSN returns the LSN of the most recent checkpoint record,
// or 0 if none.
func (l *Log) LastCheckpointLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCkpt
}

// ReadAt reads the record at the given LSN (which must be a value returned
// by Append on this log).
func (l *Log) ReadAt(lsn uint64) (*Record, error) {
	if lsn == 0 {
		return nil, fmt.Errorf("wal: read at LSN 0")
	}
	if err := l.Flush(); err != nil {
		return nil, err
	}
	off := lsn - 1
	var hdr [frameHeader]byte
	if _, err := l.f.ReadAt(hdr[:], int64(off)); err != nil {
		return nil, fmt.Errorf("wal: read frame at %d: %w", lsn, err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	body := make([]byte, length)
	if _, err := l.f.ReadAt(body, int64(off+frameHeader)); err != nil {
		return nil, fmt.Errorf("wal: read body at %d: %w", lsn, err)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("wal: crc mismatch at %d", lsn)
	}
	r, err := decodeRecord(body)
	if err != nil {
		return nil, err
	}
	r.LSN = lsn
	return r, nil
}

// Scan iterates records starting at fromLSN (or the beginning if 0),
// calling fn for each; fn returning false stops the scan.
func (l *Log) Scan(fromLSN uint64, fn func(*Record) bool) error {
	if err := l.Flush(); err != nil {
		return err
	}
	l.mu.Lock()
	end := l.fileEnd
	l.mu.Unlock()
	off := uint64(0)
	if fromLSN > 0 {
		off = fromLSN - 1
	}
	var hdr [frameHeader]byte
	for off+frameHeader <= end {
		if _, err := l.f.ReadAt(hdr[:], int64(off)); err != nil {
			return fmt.Errorf("wal: scan frame at %d: %w", off, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		body := make([]byte, length)
		if _, err := l.f.ReadAt(body, int64(off+frameHeader)); err != nil {
			return fmt.Errorf("wal: scan body at %d: %w", off, err)
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:]) {
			return fmt.Errorf("wal: scan crc mismatch at %d", off)
		}
		r, err := decodeRecord(body)
		if err != nil {
			return err
		}
		r.LSN = off + 1
		if !fn(r) {
			return nil
		}
		off += frameHeader + uint64(length)
	}
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	if err := l.Flush(); err != nil {
		return err
	}
	return l.f.Close()
}
