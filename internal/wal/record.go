// Package wal implements HRDBMS's per-node log manager and ARIES-style
// recovery (Sections I and VI): a write-ahead log of physiological records,
// fuzzy checkpoints, and the analysis / redo / undo passes with compensation
// log records. Coordinator nodes additionally log XA (2PC) records — a
// worker that finds a transaction in-doubt after restart asks the
// coordinator recorded in its PREPARE record for the outcome.
package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/page"
)

// RecType identifies a log record type.
type RecType uint8

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecInsert
	RecDelete
	RecCLR
	RecCommit
	RecAbort
	RecPrepare // XA: node is prepared; payload holds the coordinator ID
	RecCheckpoint
	// Coordinator-side XA log records.
	RecXACommit
	RecXARollback
)

// Record is one WAL entry. LSN is assigned by the log manager at append
// time (it is the record's byte offset in the log file).
type Record struct {
	LSN     uint64
	Type    RecType
	TxID    uint64
	PrevLSN uint64 // previous record of the same transaction (0 = none)

	// Page operation fields (Insert/Delete/CLR).
	Page page.Key
	Slot uint16
	Row  []byte // encoded row: after-image for Insert, before-image for Delete

	// CLR: next record to undo for this transaction.
	UndoNext uint64

	// Prepare: which coordinator owns the global transaction outcome.
	Coordinator int32

	// Checkpoint payload (serialized ATT and DPT).
	Checkpoint []byte
}

// encode serializes the record body (everything but the framing).
func (r *Record) encode() []byte {
	buf := make([]byte, 0, 64+len(r.Row)+len(r.Checkpoint))
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, r.TxID)
	buf = binary.AppendUvarint(buf, r.PrevLSN)
	buf = binary.AppendUvarint(buf, uint64(r.Page.File))
	buf = binary.AppendUvarint(buf, uint64(r.Page.Page))
	buf = binary.AppendUvarint(buf, uint64(r.Slot))
	buf = binary.AppendUvarint(buf, r.UndoNext)
	buf = binary.AppendVarint(buf, int64(r.Coordinator))
	buf = binary.AppendUvarint(buf, uint64(len(r.Row)))
	buf = append(buf, r.Row...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Checkpoint)))
	buf = append(buf, r.Checkpoint...)
	return buf
}

func decodeRecord(b []byte) (*Record, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("wal: empty record")
	}
	r := &Record{Type: RecType(b[0])}
	pos := 1
	read := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("wal: truncated record")
		}
		pos += n
		return v, nil
	}
	var err error
	var v uint64
	if r.TxID, err = read(); err != nil {
		return nil, err
	}
	if r.PrevLSN, err = read(); err != nil {
		return nil, err
	}
	if v, err = read(); err != nil {
		return nil, err
	}
	r.Page.File = page.FileID(v)
	if v, err = read(); err != nil {
		return nil, err
	}
	r.Page.Page = uint32(v)
	if v, err = read(); err != nil {
		return nil, err
	}
	r.Slot = uint16(v)
	if r.UndoNext, err = read(); err != nil {
		return nil, err
	}
	coord, n := binary.Varint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("wal: truncated coordinator")
	}
	pos += n
	r.Coordinator = int32(coord)
	if v, err = read(); err != nil {
		return nil, err
	}
	if uint64(len(b)-pos) < v {
		return nil, fmt.Errorf("wal: truncated row payload")
	}
	if v > 0 {
		r.Row = append([]byte(nil), b[pos:pos+int(v)]...)
	}
	pos += int(v)
	if v, err = read(); err != nil {
		return nil, err
	}
	if uint64(len(b)-pos) < v {
		return nil, fmt.Errorf("wal: truncated checkpoint payload")
	}
	if v > 0 {
		r.Checkpoint = append([]byte(nil), b[pos:pos+int(v)]...)
	}
	return r, nil
}
