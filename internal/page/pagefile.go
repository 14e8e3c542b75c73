package page

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"repro/internal/compress"
)

// File is an on-disk page file. Every page occupies a fixed-size slot at
// offset pageNum*slotSize, but is stored LZ4-compressed inside the slot; the
// unused tail of each slot is never written, so on filesystems with sparse
// file support it occupies (almost) no space — the trick the paper uses to
// keep compressed pages addressable without an offset table.
//
// Slot layout: 8-byte header (compressed length uint32, flags uint32) then
// the compressed page bytes. Flag bit0 = stored raw (incompressible page).
type File struct {
	mu       sync.RWMutex //lint:lockorder page.file
	f        *os.File
	pageSize int
	numPages uint32
	compress bool
	scratch  sync.Pool // *[]byte of pageSize: a read's compressed payload, before it is decoded into the caller's buffer
}

const slotHeader = 8

// OpenFile opens (creating if necessary) a page file with the given page
// size. compressPages enables per-page LZ4.
func OpenFile(path string, pageSize int, compressPages bool) (*File, error) {
	if pageSize <= headerSize || pageSize > MaxPageSize {
		return nil, fmt.Errorf("page: invalid page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("page: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	slot := int64(pageSize + slotHeader)
	n := uint32((st.Size() + slot - 1) / slot)
	pf := &File{f: f, pageSize: pageSize, numPages: n, compress: compressPages}
	pf.scratch.New = func() any {
		b := make([]byte, pageSize)
		return &b
	}
	return pf, nil
}

// NumPages returns the number of allocated pages.
func (pf *File) NumPages() uint32 {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	return pf.numPages
}

func (pf *File) slotOffset(pageNum uint32) int64 {
	return int64(pageNum) * int64(pf.pageSize+slotHeader)
}

// WritePage stores the page buffer (which must be exactly PageSize bytes)
// at the given page number, compressing it if enabled and profitable.
func (pf *File) WritePage(pageNum uint32, buf []byte) error {
	if len(buf) != pf.pageSize {
		return fmt.Errorf("page: write: buffer is %d bytes, page size %d", len(buf), pf.pageSize)
	}
	payload := buf
	flags := uint32(1) // raw
	if pf.compress {
		c := compress.CompressLZ4(buf)
		if len(c) < pf.pageSize {
			payload = c
			flags = 0
		}
	}
	var hdr [slotHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], flags)

	pf.mu.Lock()
	defer pf.mu.Unlock()
	off := pf.slotOffset(pageNum)
	if _, err := pf.f.WriteAt(hdr[:], off); err != nil {
		return fmt.Errorf("page: write header p%d: %w", pageNum, err)
	}
	if _, err := pf.f.WriteAt(payload, off+slotHeader); err != nil {
		return fmt.Errorf("page: write payload p%d: %w", pageNum, err)
	}
	if pageNum >= pf.numPages {
		pf.numPages = pageNum + 1
	}
	return nil
}

// ReadPage fills buf, which must be exactly PageSize bytes, with the page:
// every byte of buf is written, so the caller may hand in a recycled buffer.
// A page that was allocated but never written reads as zeroes. On error buf's
// contents are unspecified.
func (pf *File) ReadPage(pageNum uint32, buf []byte) error {
	if len(buf) != pf.pageSize {
		return fmt.Errorf("page: read: buffer is %d bytes, page size %d", len(buf), pf.pageSize)
	}
	pf.mu.RLock()
	if pageNum >= pf.numPages {
		pf.mu.RUnlock()
		return fmt.Errorf("page: read p%d beyond end (%d pages)", pageNum, pf.numPages)
	}
	var hdr [slotHeader]byte
	off := pf.slotOffset(pageNum)
	n, _ := pf.f.ReadAt(hdr[:], off)
	pf.mu.RUnlock()
	compLen := binary.LittleEndian.Uint32(hdr[0:])
	flags := binary.LittleEndian.Uint32(hdr[4:])
	if n < slotHeader || compLen == 0 {
		// Slot inside a file hole, or past the last write: never written.
		clear(buf)
		return nil
	}
	if int(compLen) > pf.pageSize {
		return fmt.Errorf("page: p%d corrupt compressed length %d", pageNum, compLen)
	}
	if flags&1 != 0 {
		if int(compLen) != pf.pageSize {
			return fmt.Errorf("page: p%d raw page wrong length %d", pageNum, compLen)
		}
		if _, err := pf.f.ReadAt(buf, off+slotHeader); err != nil {
			return fmt.Errorf("page: read p%d payload: %w", pageNum, err)
		}
		return nil
	}
	scratch := pf.scratch.Get().(*[]byte)
	defer pf.scratch.Put(scratch)
	payload := (*scratch)[:compLen]
	if _, err := pf.f.ReadAt(payload, off+slotHeader); err != nil {
		return fmt.Errorf("page: read p%d payload: %w", pageNum, err)
	}
	if err := compress.DecompressLZ4Into(buf, payload); err != nil {
		return fmt.Errorf("page: p%d: %w", pageNum, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (pf *File) Sync() error { return pf.f.Sync() }

// Close closes the underlying file.
func (pf *File) Close() error { return pf.f.Close() }
