package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/types"
)

// spillFile is one temp file, shared by the writer that fills it and the
// reader that drains it. discard closes and unlinks it exactly once, so the
// side that is done with it and the spillSet that owns it may both call.
type spillFile struct {
	f    *os.File
	once sync.Once
}

func (s *spillFile) discard() {
	s.once.Do(func() {
		s.f.Close()
		os.Remove(s.f.Name())
	})
}

// spillSet owns the spill files of one blocking operator: the operator
// opens every writer through it and empties it in Close. An input error, a
// failed merge pass, a kill or a consumer that closes early therefore needs
// no cleanup of its own — whatever was not discarded on the way (a drained
// run, a finished pass) is discarded there.
type spillSet struct {
	mu    sync.Mutex // build workers and mergers open writers concurrently
	files []*spillFile
}

func (s *spillSet) newWriter(ctx *Ctx, pattern string) (*spillWriter, error) {
	w, err := newSpillWriter(ctx, pattern)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.files = append(s.files, w.file)
	s.mu.Unlock()
	return w, nil
}

func (s *spillSet) discardAll() {
	s.mu.Lock()
	files := s.files
	s.files = nil
	s.mu.Unlock()
	for _, f := range files {
		f.discard()
	}
}

// spillWriter streams rows to a temp file (length-prefixed encoded rows).
type spillWriter struct {
	ctx   *Ctx
	file  *spillFile
	w     *bufio.Writer
	bytes int64
	rows  int64
}

func newSpillWriter(ctx *Ctx, pattern string) (*spillWriter, error) {
	if ctx == nil {
		return nil, fmt.Errorf("exec: spill without context")
	}
	f, err := ctx.tempFile(pattern)
	if err != nil {
		return nil, err
	}
	return &spillWriter{ctx: ctx, file: &spillFile{f: f}, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (s *spillWriter) write(r types.Row) error {
	enc := types.AppendRow(nil, r)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(enc)))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.w.Write(enc); err != nil {
		return err
	}
	s.bytes += int64(len(enc) + 4)
	s.rows++
	s.ctx.SpillBytes.Add(int64(len(enc) + 4))
	return nil
}

// finish flushes and rewinds, returning a reader over the written rows.
// The file is unlinked on reader close.
func (s *spillWriter) finish() (*spillReader, error) {
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	if _, err := s.file.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return &spillReader{file: s.file, r: bufio.NewReaderSize(s.file.f, 1<<16)}, nil
}

// abort discards the spill file.
func (s *spillWriter) abort() { s.file.discard() }

// spillReader streams rows back from a spill file.
type spillReader struct {
	file *spillFile
	r    *bufio.Reader
}

func (s *spillReader) next() (types.Row, bool, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(s.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("exec: spill read: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return nil, false, fmt.Errorf("exec: spill read body: %w", err)
	}
	row, _, err := types.DecodeRow(buf)
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// nextBatch reads up to n rows into a fresh slab.
func (s *spillReader) nextBatch(n int) ([]types.Row, bool, error) {
	var slab []types.Row
	for len(slab) < n {
		r, ok, err := s.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		slab = append(slab, r)
	}
	return slab, len(slab) > 0, nil
}

func (s *spillReader) close() { s.file.discard() }
