package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/page"
)

// PageAccess is the slice of the buffer manager recovery needs.
type PageAccess interface {
	Fetch(k page.Key) (*buffer.Frame, error)
	Unpin(f *buffer.Frame, dirty bool)
}

// TxStatus is a transaction's state in the analysis pass.
type TxStatus uint8

// Transaction states discovered during analysis.
const (
	TxActive TxStatus = iota + 1
	TxPrepared
)

// TxInfo is one active-transaction-table entry.
type TxInfo struct {
	LastLSN     uint64
	Status      TxStatus
	Coordinator int32 // valid when Status == TxPrepared
}

// InDoubt describes a prepared transaction whose global outcome is unknown
// after local recovery; the caller must ask the recorded coordinator (the
// paper's worker-restart protocol) and then call ResolveInDoubt.
type InDoubt struct {
	TxID        uint64
	Coordinator int32
}

// RecoveryResult summarizes a completed recovery.
type RecoveryResult struct {
	RedoneRecords int
	UndoneRecords int
	LoserTxns     []uint64
	InDoubt       []InDoubt
	MaxTxID       uint64
}

// Recover runs ARIES analysis, redo, and undo against the log, applying
// page changes through pa. Prepared transactions are left in place and
// reported as in-doubt.
func Recover(l *Log, pa PageAccess) (*RecoveryResult, error) {
	att, dpt, maxTx, err := analysis(l)
	if err != nil {
		return nil, err
	}
	res := &RecoveryResult{MaxTxID: maxTx}

	redone, err := redo(l, pa, dpt)
	if err != nil {
		return nil, err
	}
	res.RedoneRecords = redone

	// Partition ATT into losers (undo) and in-doubt (leave alone).
	var losers []uint64
	for tx, info := range att {
		if info.Status == TxPrepared {
			res.InDoubt = append(res.InDoubt, InDoubt{TxID: tx, Coordinator: info.Coordinator})
		} else {
			losers = append(losers, tx)
		}
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i] < losers[j] })
	sort.Slice(res.InDoubt, func(i, j int) bool { return res.InDoubt[i].TxID < res.InDoubt[j].TxID })
	res.LoserTxns = losers

	for _, tx := range losers {
		n, err := UndoTransaction(l, pa, tx, att[tx].LastLSN)
		if err != nil {
			return nil, err
		}
		res.UndoneRecords += n
	}
	if err := l.Flush(); err != nil {
		return nil, err
	}
	return res, nil
}

// analysis builds the active transaction table and dirty page table.
func analysis(l *Log) (map[uint64]*TxInfo, map[page.Key]uint64, uint64, error) {
	att := map[uint64]*TxInfo{}
	dpt := map[page.Key]uint64{}
	var maxTx uint64

	start := l.LastCheckpointLSN()
	if start != 0 {
		ckpt, err := l.ReadAt(start)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("wal: read checkpoint: %w", err)
		}
		if att, dpt, err = decodeCheckpoint(ckpt.Checkpoint); err != nil {
			return nil, nil, 0, fmt.Errorf("wal: checkpoint at LSN %d: %w", start, err)
		}
	}
	err := l.Scan(start, func(r *Record) bool {
		if r.TxID > maxTx {
			maxTx = r.TxID
		}
		switch r.Type {
		case RecBegin:
			att[r.TxID] = &TxInfo{LastLSN: r.LSN, Status: TxActive}
		case RecInsert, RecDelete, RecCLR:
			info := att[r.TxID]
			if info == nil {
				info = &TxInfo{Status: TxActive}
				att[r.TxID] = info
			}
			info.LastLSN = r.LSN
			if _, ok := dpt[r.Page]; !ok {
				dpt[r.Page] = r.LSN
			}
		case RecPrepare:
			info := att[r.TxID]
			if info == nil {
				info = &TxInfo{}
				att[r.TxID] = info
			}
			info.LastLSN = r.LSN
			info.Status = TxPrepared
			info.Coordinator = r.Coordinator
		case RecCommit, RecAbort:
			delete(att, r.TxID)
		}
		return true
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return att, dpt, maxTx, nil
}

// redo reapplies logged page operations whose effects may be missing.
func redo(l *Log, pa PageAccess, dpt map[page.Key]uint64) (int, error) {
	if len(dpt) == 0 {
		return 0, nil
	}
	start := ^uint64(0)
	for _, recLSN := range dpt {
		if recLSN < start {
			start = recLSN
		}
	}
	redone := 0
	var redoErr error
	err := l.Scan(start, func(r *Record) bool {
		switch r.Type {
		case RecInsert, RecDelete, RecCLR:
		default:
			return true
		}
		recLSN, inDPT := dpt[r.Page]
		if !inDPT || r.LSN < recLSN {
			return true
		}
		applied, err := applyRedo(pa, r)
		if err != nil {
			redoErr = err
			return false
		}
		if applied {
			redone++
		}
		return true
	})
	if err != nil {
		return redone, err
	}
	return redone, redoErr
}

// applyRedo applies one record if the page LSN shows it is missing.
func applyRedo(pa PageAccess, r *Record) (bool, error) {
	f, err := pa.Fetch(r.Page)
	if err != nil {
		return false, fmt.Errorf("wal: redo fetch %v: %w", r.Page, err)
	}
	f.Latch.Lock()
	if page.LSN(f.Buf) >= r.LSN {
		f.Latch.Unlock()
		pa.Unpin(f, false)
		return false, nil
	}
	if err := applyAction(f.Buf, r); err != nil {
		f.Latch.Unlock()
		pa.Unpin(f, false)
		return false, fmt.Errorf("wal: redo record type %d lsn=%d: %w", r.Type, r.LSN, err)
	}
	page.SetLSN(f.Buf, r.LSN)
	f.Latch.Unlock()
	pa.Unpin(f, true)
	return true, nil
}

// applyAction performs the page mutation a record describes. For CLRs, an
// empty Row means "tombstone the slot" (undo of insert) and a non-empty Row
// means "restore the row" (undo of delete).
func applyAction(buf []byte, r *Record) error {
	if page.TypeOf(buf) == page.TypeFree {
		page.InitRowPage(buf)
	}
	rp, err := page.AsRowPage(buf)
	if err != nil {
		return err
	}
	switch r.Type {
	case RecInsert:
		slot, ok := rp.InsertEncoded(r.Row)
		if !ok {
			return fmt.Errorf("redo insert: page full")
		}
		if slot != int(r.Slot) {
			return fmt.Errorf("redo insert: slot %d, logged %d", slot, r.Slot)
		}
	case RecDelete:
		rp.Delete(int(r.Slot))
	case RecCLR:
		if len(r.Row) == 0 {
			rp.Delete(int(r.Slot))
		} else {
			if err := rp.RestoreSlot(int(r.Slot), r.Row); err != nil {
				return err
			}
		}
	}
	return nil
}

// UndoTransaction rolls back one transaction by walking its PrevLSN chain,
// writing CLRs as it goes, and finishes with an abort record. Used both by
// crash recovery (losers) and by live transaction rollback. Returns the
// number of operations undone.
func UndoTransaction(l *Log, pa PageAccess, tx uint64, lastLSN uint64) (int, error) {
	undone := 0
	lsn := lastLSN
	for lsn != 0 {
		r, err := l.ReadAt(lsn)
		if err != nil {
			return undone, fmt.Errorf("wal: undo read lsn=%d: %w", lsn, err)
		}
		switch r.Type {
		case RecCLR:
			lsn = r.UndoNext
			continue
		case RecBegin:
			lsn = 0
			continue
		case RecInsert, RecDelete:
			clr := &Record{
				Type:     RecCLR,
				TxID:     tx,
				PrevLSN:  lastLSN,
				Page:     r.Page,
				Slot:     r.Slot,
				UndoNext: r.PrevLSN,
			}
			if r.Type == RecDelete {
				clr.Row = r.Row // restore the deleted row
			}
			clrLSN := l.Append(clr)
			f, err := pa.Fetch(r.Page)
			if err != nil {
				return undone, fmt.Errorf("wal: undo fetch %v: %w", r.Page, err)
			}
			// A rollback runs beside other sessions' scans of the page.
			f.Latch.Lock()
			if err := applyAction(f.Buf, clr); err != nil {
				f.Latch.Unlock()
				pa.Unpin(f, false)
				return undone, fmt.Errorf("wal: undo apply lsn=%d: %w", lsn, err)
			}
			page.SetLSN(f.Buf, clrLSN)
			f.Latch.Unlock()
			pa.Unpin(f, true)
			lastLSN = clrLSN
			undone++
			lsn = r.PrevLSN
		default:
			lsn = r.PrevLSN
		}
	}
	l.Append(&Record{Type: RecAbort, TxID: tx, PrevLSN: lastLSN})
	return undone, nil
}

// WriteCheckpoint logs a fuzzy checkpoint capturing the caller's ATT and
// DPT snapshots and flushes the log.
func WriteCheckpoint(l *Log, att map[uint64]*TxInfo, dpt map[page.Key]uint64) (uint64, error) {
	r := &Record{Type: RecCheckpoint, Checkpoint: encodeCheckpoint(att, dpt)}
	lsn := l.Append(r)
	return lsn, l.Flush()
}

func encodeCheckpoint(att map[uint64]*TxInfo, dpt map[page.Key]uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(att)))
	txs := make([]uint64, 0, len(att))
	for tx := range att {
		txs = append(txs, tx)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	for _, tx := range txs {
		info := att[tx]
		buf = binary.AppendUvarint(buf, tx)
		buf = binary.AppendUvarint(buf, info.LastLSN)
		buf = append(buf, byte(info.Status))
		buf = binary.AppendVarint(buf, int64(info.Coordinator))
	}
	buf = binary.AppendUvarint(buf, uint64(len(dpt)))
	keys := make([]page.Key, 0, len(dpt))
	for k := range dpt {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].File != keys[j].File {
			return keys[i].File < keys[j].File
		}
		return keys[i].Page < keys[j].Page
	})
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, uint64(k.File))
		buf = binary.AppendUvarint(buf, uint64(k.Page))
		buf = binary.AppendUvarint(buf, dpt[k])
	}
	return buf
}

// decodeCheckpoint reads what encodeCheckpoint wrote. A payload cut short,
// or followed by bytes it did not write, is an error: recovery must not
// trust a partial ATT or DPT.
func decodeCheckpoint(b []byte) (map[uint64]*TxInfo, map[page.Key]uint64, error) {
	att := map[uint64]*TxInfo{}
	dpt := map[page.Key]uint64{}
	pos, short := 0, false
	read := func() uint64 {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			short = true
			return 0
		}
		pos += n
		return v
	}
	for i, nATT := uint64(0), read(); i < nATT && !short; i++ {
		tx, last := read(), read()
		if short || pos >= len(b) {
			short = true
			break
		}
		status := TxStatus(b[pos])
		pos++
		coord, n := binary.Varint(b[pos:])
		if n <= 0 {
			short = true
			break
		}
		pos += n
		att[tx] = &TxInfo{LastLSN: last, Status: status, Coordinator: int32(coord)}
	}
	for i, nDPT := uint64(0), read(); i < nDPT && !short; i++ {
		file, pg, rec := read(), read(), read()
		dpt[page.Key{File: page.FileID(file), Page: uint32(pg)}] = rec
	}
	switch {
	case short:
		return nil, nil, fmt.Errorf("wal: truncated checkpoint payload")
	case pos != len(b):
		return nil, nil, fmt.Errorf("wal: %d stray bytes after the checkpoint payload", len(b)-pos)
	}
	return att, dpt, nil
}
