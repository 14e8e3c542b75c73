// Package index implements HRDBMS's disk-resident index structure
// (Section III): a B+-tree in a page file accessed through the buffer
// manager.
//
// Index keys are rows (possibly single-column) compared lexicographically,
// and entries map keys to physical RIDs.
package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/page"
)

// Space gives an index access to the pages of its file: fetching existing
// pages and allocating fresh ones.
type Space interface {
	Fetch(pageNum uint32) (*buffer.Frame, error)
	Unpin(f *buffer.Frame, dirty bool)
	Allocate() (uint32, error)
	PageSize() int
}

// BufferSpace adapts a buffer manager plus file ID into a Space. Allocation
// state (the page high-water mark) is kept on the caller-owned meta page of
// each index, so BufferSpace itself is stateless besides the counter, which
// the index persists.
type BufferSpace struct {
	Mgr      *buffer.Manager
	File     page.FileID
	Size     int
	nextPage *uint32
}

// NewBufferSpace creates a Space over a buffer-managed file. next is the
// first unallocated page number (restored from the index meta page when
// reopening).
func NewBufferSpace(mgr *buffer.Manager, file page.FileID, pageSize int, next uint32) *BufferSpace {
	n := next
	return &BufferSpace{Mgr: mgr, File: file, Size: pageSize, nextPage: &n}
}

// Fetch pins the page.
func (s *BufferSpace) Fetch(pageNum uint32) (*buffer.Frame, error) {
	return s.Mgr.Fetch(page.Key{File: s.File, Page: pageNum})
}

// Unpin releases the pin.
func (s *BufferSpace) Unpin(f *buffer.Frame, dirty bool) { s.Mgr.Unpin(f, dirty) }

// Allocate reserves the next page number and returns it.
func (s *BufferSpace) Allocate() (uint32, error) {
	n := *s.nextPage
	*s.nextPage = n + 1
	return n, nil
}

// NextPage returns the allocation high-water mark (persisted by the index).
func (s *BufferSpace) NextPage() uint32 { return *s.nextPage }

// PageSize returns the page size.
func (s *BufferSpace) PageSize() int { return s.Size }

// RID packing helpers.

func appendRID(dst []byte, r page.RID) []byte {
	var buf [10]byte
	binary.LittleEndian.PutUint16(buf[0:], r.Node)
	binary.LittleEndian.PutUint16(buf[2:], r.Disk)
	binary.LittleEndian.PutUint32(buf[4:], r.Page)
	binary.LittleEndian.PutUint16(buf[8:], r.Slot)
	return append(dst, buf[:]...)
}

func decodeRID(b []byte) (page.RID, error) {
	if len(b) < 10 {
		return page.RID{}, fmt.Errorf("index: short RID")
	}
	return page.RID{
		Node: binary.LittleEndian.Uint16(b[0:]),
		Disk: binary.LittleEndian.Uint16(b[2:]),
		Page: binary.LittleEndian.Uint32(b[4:]),
		Slot: binary.LittleEndian.Uint16(b[8:]),
	}, nil
}
