// Package page implements HRDBMS's page-oriented block storage: slotted row
// pages, PAX-style column pages grouped into page sets, and the on-disk page
// file format with per-page LZ4 compression over a sparse file so pages stay
// addressable at fixed offsets (Section III of the paper).
package page

import (
	"encoding/binary"
	"fmt"
)

// DefaultPageSize is the page size used unless a table overrides it. The
// paper supports pages up to 64 MB; tests use smaller pages to exercise page
// boundaries.
const DefaultPageSize = 32 * 1024

// MaxPageSize is the largest configurable page size (64 MB, as in the paper).
const MaxPageSize = 64 * 1024 * 1024

// FileID identifies a page file registered with a buffer manager.
type FileID uint32

// Key identifies one page within the cluster-local storage of a node: a
// registered page file plus a page number within it.
type Key struct {
	File FileID
	Page uint32
}

// String renders the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("file%d:page%d", k.File, k.Page) }

// RID is a physical row identifier: node, disk, page, and slot, exactly the
// four components the paper describes.
type RID struct {
	Node uint16
	Disk uint16
	Page uint32
	Slot uint16
}

// Page header layout (common to row and column pages):
//
//	bytes 0..7   pageLSN (uint64) — for ARIES recovery
//	byte  8      page type
//	bytes 9..12  slot/value count (uint32)
//	bytes 13..16 free-space pointer (uint32) — row pages only
const (
	offLSN     = 0
	offType    = 8
	offCount   = 9
	offFreePtr = 13
	headerSize = 17
)

// Page types.
const (
	TypeFree   byte = 0
	TypeRow    byte = 1
	TypeColumn byte = 2
	TypeIndex  byte = 3
	TypeMeta   byte = 4
)

// LSN reads the page LSN used by recovery.
func LSN(buf []byte) uint64 { return binary.LittleEndian.Uint64(buf[offLSN:]) }

// SetLSN stamps the page LSN.
func SetLSN(buf []byte, lsn uint64) { binary.LittleEndian.PutUint64(buf[offLSN:], lsn) }

// TypeOf returns the page type byte.
func TypeOf(buf []byte) byte { return buf[offType] }

// setType stamps the page type byte.
func setType(buf []byte, t byte) { buf[offType] = t }

// countOf returns the slot/value count.
func countOf(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[offCount:]) }

func setCount(buf []byte, n uint32) { binary.LittleEndian.PutUint32(buf[offCount:], n) }

func freePtr(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[offFreePtr:]) }

func setFreePtr(buf []byte, p uint32) { binary.LittleEndian.PutUint32(buf[offFreePtr:], p) }
