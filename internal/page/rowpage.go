package page

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// RowPage is a slotted page holding encoded rows. Rows grow forward from the
// header; the slot directory (4 bytes per slot: offset uint16<<16 | length
// uint16 is too small for big pages, so we use two uint32s packed in 8
// bytes) grows backward from the end of the page.
//
// Deletes are logical: a slot with length 0 is a tombstone. Inserts are
// append-only within the page, matching the paper's append-only insert and
// out-of-place update design, which is what keeps predicate-cache entries
// valid for full pages.
type RowPage struct {
	Buf []byte
}

const slotSize = 8 // offset uint32 + length uint32

// InitRowPage formats buf as an empty row page.
func InitRowPage(buf []byte) RowPage {
	for i := range buf[:headerSize] {
		buf[i] = 0
	}
	setType(buf, TypeRow)
	setCount(buf, 0)
	setFreePtr(buf, headerSize)
	return RowPage{Buf: buf}
}

// AsRowPage wraps an existing formatted buffer.
func AsRowPage(buf []byte) (RowPage, error) {
	if TypeOf(buf) != TypeRow {
		return RowPage{}, fmt.Errorf("page: not a row page (type %d)", TypeOf(buf))
	}
	return RowPage{Buf: buf}, nil
}

// NumSlots returns the number of slots (including tombstones).
func (p RowPage) NumSlots() int { return int(countOf(p.Buf)) }

// FreeSpace returns the bytes available for one more row (accounting for its
// slot directory entry).
func (p RowPage) FreeSpace() int {
	used := int(freePtr(p.Buf))
	dirStart := len(p.Buf) - p.NumSlots()*slotSize
	free := dirStart - used - slotSize
	if free < 0 {
		return 0
	}
	return free
}

func (p RowPage) slotAt(i int) (offset, length uint32) {
	base := len(p.Buf) - (i+1)*slotSize
	return binary.LittleEndian.Uint32(p.Buf[base:]), binary.LittleEndian.Uint32(p.Buf[base+4:])
}

func (p RowPage) setSlotAt(i int, offset, length uint32) {
	base := len(p.Buf) - (i+1)*slotSize
	binary.LittleEndian.PutUint32(p.Buf[base:], offset)
	binary.LittleEndian.PutUint32(p.Buf[base+4:], length)
}

// InsertEncoded appends an already-encoded row, returning its slot number.
// Returns false if the page is full.
func (p RowPage) InsertEncoded(enc []byte) (slot int, ok bool) {
	if len(enc) > p.FreeSpace() {
		return 0, false
	}
	off := freePtr(p.Buf)
	copy(p.Buf[off:], enc)
	slot = p.NumSlots()
	p.setSlotAt(slot, off, uint32(len(enc)))
	setFreePtr(p.Buf, off+uint32(len(enc)))
	setCount(p.Buf, uint32(slot+1))
	return slot, true
}

// Get decodes the row in the given slot. Returns ok=false for tombstones or
// out-of-range slots. With a nil mask the row is a whole one the caller
// owns; otherwise only the columns mask marks are decoded, into dst
// (types.DecodeRowInto), and the row returned is dst's.
func (p RowPage) Get(slot int, mask []bool, dst types.Row) (types.Row, bool, error) {
	enc := p.GetEncoded(slot)
	if enc == nil {
		return nil, false, nil // tombstone or out of range
	}
	var (
		row types.Row
		err error
	)
	if mask == nil {
		row, _, err = types.DecodeRow(enc)
	} else {
		row, _, err = types.DecodeRowInto(enc, mask, dst)
	}
	if err != nil {
		return nil, false, fmt.Errorf("page: slot %d: %w", slot, err)
	}
	return row, true, nil
}

// GetEncoded returns the raw encoded bytes of a slot (nil for tombstones).
func (p RowPage) GetEncoded(slot int) []byte {
	if slot < 0 || slot >= p.NumSlots() {
		return nil
	}
	off, length := p.slotAt(slot)
	if length == 0 {
		return nil
	}
	return p.Buf[off : off+length]
}

// Delete tombstones a slot. Space is not reclaimed until the table is
// reorganized, as in the paper. Reports whether the slot held a live row.
func (p RowPage) Delete(slot int) bool {
	if slot < 0 || slot >= p.NumSlots() {
		return false
	}
	off, length := p.slotAt(slot)
	if length == 0 {
		return false
	}
	p.setSlotAt(slot, off, 0)
	return true
}

// RestoreSlot undoes a Delete: it rewrites the row bytes at the slot's
// original offset and resets the slot length. Used by ARIES undo/redo-of-CLR,
// which is safe because inserts are append-only so the space is untouched.
func (p RowPage) RestoreSlot(slot int, enc []byte) error {
	if slot < 0 || slot >= p.NumSlots() {
		return fmt.Errorf("page: restore slot %d of %d", slot, p.NumSlots())
	}
	off, _ := p.slotAt(slot)
	copy(p.Buf[off:], enc)
	p.setSlotAt(slot, off, uint32(len(enc)))
	return nil
}

// CopyTo copies the page into dst, a buffer of the page's size, and returns
// the copy. Only the bytes in use are copied: the header and rows, and the
// slot directory at the end.
func (p RowPage) CopyTo(dst []byte) RowPage {
	dst = dst[:len(p.Buf)]
	copy(dst, p.Buf[:freePtr(p.Buf)])
	dir := len(p.Buf) - p.NumSlots()*slotSize
	copy(dst[dir:], p.Buf[dir:])
	return RowPage{Buf: dst}
}

// Scan calls fn for every live row on the page, stopping early if fn
// returns false. mask and dst are Get's: with a nil mask fn gets a
// whole row it owns, otherwise it borrows dst, which holds the marked
// columns, until it returns.
func (p RowPage) Scan(mask []bool, dst types.Row, fn func(slot int, r types.Row) bool) error {
	n := p.NumSlots()
	for i := 0; i < n; i++ {
		row, ok, err := p.Get(i, mask, dst)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !fn(i, row) {
			return nil
		}
	}
	return nil
}

// LiveSlots appends the encoded rows of the page's live slots, in slot
// order, to dst and returns it. The rows alias the page.
func (p RowPage) LiveSlots(dst [][]byte) [][]byte {
	n := p.NumSlots()
	for i := 0; i < n; i++ {
		if off, length := p.slotAt(i); length != 0 {
			dst = append(dst, p.Buf[off:off+length:off+length])
		}
	}
	return dst
}

// LiveRows returns the number of non-tombstone slots.
func (p RowPage) LiveRows() int {
	n := 0
	for i := 0; i < p.NumSlots(); i++ {
		if _, length := p.slotAt(i); length != 0 {
			n++
		}
	}
	return n
}
