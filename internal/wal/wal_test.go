package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/types"
)

// memStore is a tiny in-memory page store for recovery tests.
type memStore struct {
	mu       sync.Mutex
	pages    map[page.Key][]byte
	pageSize int
}

func newMemStore(size int) *memStore {
	return &memStore{pages: map[page.Key][]byte{}, pageSize: size}
}

func (s *memStore) ReadPage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.pages[page.Key{File: f, Page: n}]; ok {
		copy(buf, b)
		return nil
	}
	clear(buf)
	return nil
}

func (s *memStore) WritePage(f page.FileID, n uint32, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := make([]byte, len(buf))
	copy(b, buf)
	s.pages[page.Key{File: f, Page: n}] = b
	return nil
}

func (s *memStore) PageSize() int { return s.pageSize }

func openLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

// mustFetch pins key, failing the test on error.
func mustFetch(t *testing.T, m *buffer.Manager, k page.Key) *buffer.Frame {
	t.Helper()
	f, err := m.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mustRowPage interprets buf as a row page, failing the test on error.
func mustRowPage(t *testing.T, buf []byte) page.RowPage {
	t.Helper()
	rp, err := page.AsRowPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// mustGet reads a slot, failing the test on a decode error.
func mustGet(t *testing.T, rp page.RowPage, slot int) (types.Row, bool) {
	t.Helper()
	r, ok, err := rp.Get(slot, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, ok
}

func TestAppendFlushScan(t *testing.T) {
	l, _ := openLog(t)
	defer l.Close()
	lsn1 := l.Append(&Record{Type: RecBegin, TxID: 1})
	lsn2 := l.Append(&Record{Type: RecInsert, TxID: 1, PrevLSN: lsn1,
		Page: page.Key{File: 3, Page: 9}, Slot: 2, Row: []byte("rowdata")})
	l.Append(&Record{Type: RecCommit, TxID: 1, PrevLSN: lsn2})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	var seen []RecType
	err := l.Scan(0, func(r *Record) bool { seen = append(seen, r.Type); return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != RecBegin || seen[1] != RecInsert || seen[2] != RecCommit {
		t.Fatalf("scan types = %v", seen)
	}
	r, err := l.ReadAt(lsn2)
	if err != nil {
		t.Fatal(err)
	}
	if r.TxID != 1 || r.Slot != 2 || string(r.Row) != "rowdata" || r.Page.Page != 9 {
		t.Errorf("ReadAt = %+v", r)
	}
}

func TestReopenFindsEnd(t *testing.T) {
	l, path := openLog(t)
	l.Append(&Record{Type: RecBegin, TxID: 5})
	lsnLast := l.Append(&Record{Type: RecCommit, TxID: 5})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	next := l2.Append(&Record{Type: RecBegin, TxID: 6})
	if next <= lsnLast {
		t.Errorf("reopened log reused LSN space: %d <= %d", next, lsnLast)
	}
	count := 0
	if err := l2.Scan(0, func(r *Record) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("records after reopen = %d, want 3", count)
	}
}

func TestTornTailTruncated(t *testing.T) {
	l, path := openLog(t)
	l.Append(&Record{Type: RecBegin, TxID: 1})
	l.Append(&Record{Type: RecCommit, TxID: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append garbage simulating a torn write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	if err := l2.Scan(0, func(r *Record) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("records after torn tail = %d, want 2", count)
	}
}

// logTx appends a begin + n inserts into consecutive slots of one page,
// applying them to the buffer as a live transaction would. Returns lastLSN.
func logTx(t *testing.T, l *Log, m *buffer.Manager, tx uint64, key page.Key, rows []types.Row) uint64 {
	t.Helper()
	prev := l.Append(&Record{Type: RecBegin, TxID: tx})
	f, err := m.Fetch(key)
	if err != nil {
		t.Fatal(err)
	}
	if page.TypeOf(f.Buf) == page.TypeFree {
		page.InitRowPage(f.Buf)
	}
	rp, err := page.AsRowPage(f.Buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		enc := types.AppendRow(nil, r)
		slot, ok := rp.InsertEncoded(enc)
		if !ok {
			t.Fatal("page full in test")
		}
		prev = l.Append(&Record{Type: RecInsert, TxID: tx, PrevLSN: prev, Page: key, Slot: uint16(slot), Row: enc})
		page.SetLSN(f.Buf, prev)
	}
	m.Unpin(f, true)
	return prev
}

func TestRecoveryRedoCommitted(t *testing.T) {
	st := newMemStore(4096)
	l, _ := openLog(t)
	defer l.Close()
	m := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))

	key := page.Key{File: 1, Page: 0}
	last := logTx(t, l, m, 1, key, []types.Row{
		{types.NewInt(10)}, {types.NewInt(20)},
	})
	l.Append(&Record{Type: RecCommit, TxID: 1, PrevLSN: last})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash before the dirty page reaches the store: new buffer manager on
	// the same (empty) store.
	m2 := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	res, err := Recover(l, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RedoneRecords != 2 {
		t.Errorf("redone = %d, want 2", res.RedoneRecords)
	}
	if len(res.LoserTxns) != 0 {
		t.Errorf("losers = %v", res.LoserTxns)
	}
	f := mustFetch(t, m2, key)
	rp := mustRowPage(t, f.Buf)
	if rp.LiveRows() != 2 {
		t.Errorf("live rows after redo = %d, want 2", rp.LiveRows())
	}
	m2.Unpin(f, false)
}

func TestRecoveryUndoLoser(t *testing.T) {
	st := newMemStore(4096)
	l, _ := openLog(t)
	defer l.Close()
	m := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))

	key := page.Key{File: 1, Page: 0}
	// Committed transaction with one row.
	last := logTx(t, l, m, 1, key, []types.Row{{types.NewInt(1)}})
	l.Append(&Record{Type: RecCommit, TxID: 1, PrevLSN: last})
	// Loser transaction with two rows, no commit.
	logTx(t, l, m, 2, key, []types.Row{{types.NewInt(2)}, {types.NewInt(3)}})
	// Flush everything (page may hit disk before the crash, per steal).
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	m2 := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	res, err := Recover(l, m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LoserTxns) != 1 || res.LoserTxns[0] != 2 {
		t.Fatalf("losers = %v, want [2]", res.LoserTxns)
	}
	if res.UndoneRecords != 2 {
		t.Errorf("undone = %d, want 2", res.UndoneRecords)
	}
	f := mustFetch(t, m2, key)
	rp := mustRowPage(t, f.Buf)
	if rp.LiveRows() != 1 {
		t.Errorf("live rows after undo = %d, want 1", rp.LiveRows())
	}
	r, ok := mustGet(t, rp, 0)
	if !ok || r[0].Int() != 1 {
		t.Errorf("surviving row = %v ok=%v", r, ok)
	}
	m2.Unpin(f, false)

	// Recovery must be idempotent: running it again changes nothing.
	res2, err := Recover(l, m2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.UndoneRecords != 0 || len(res2.LoserTxns) != 0 {
		t.Errorf("second recovery did work: %+v", res2)
	}
}

func TestRecoveryUndoDelete(t *testing.T) {
	st := newMemStore(4096)
	l, _ := openLog(t)
	defer l.Close()
	m := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	key := page.Key{File: 1, Page: 0}

	// Tx1 commits a row.
	last := logTx(t, l, m, 1, key, []types.Row{{types.NewString("keepme")}})
	l.Append(&Record{Type: RecCommit, TxID: 1, PrevLSN: last})
	// Tx2 deletes it and crashes.
	f := mustFetch(t, m, key)
	rp := mustRowPage(t, f.Buf)
	enc := append([]byte(nil), rp.GetEncoded(0)...)
	prev := l.Append(&Record{Type: RecBegin, TxID: 2})
	rp.Delete(0)
	prev = l.Append(&Record{Type: RecDelete, TxID: 2, PrevLSN: prev, Page: key, Slot: 0, Row: enc})
	page.SetLSN(f.Buf, prev)
	m.Unpin(f, true)
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}

	m2 := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	if _, err := Recover(l, m2); err != nil {
		t.Fatal(err)
	}
	f2 := mustFetch(t, m2, key)
	rp2 := mustRowPage(t, f2.Buf)
	r, ok := mustGet(t, rp2, 0)
	if !ok || r[0].Str() != "keepme" {
		t.Errorf("deleted row not restored by undo: %v ok=%v", r, ok)
	}
	m2.Unpin(f2, false)
}

func TestRecoveryInDoubtPrepared(t *testing.T) {
	st := newMemStore(4096)
	l, _ := openLog(t)
	defer l.Close()
	m := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	key := page.Key{File: 1, Page: 0}
	last := logTx(t, l, m, 7, key, []types.Row{{types.NewInt(70)}})
	l.Append(&Record{Type: RecPrepare, TxID: 7, PrevLSN: last, Coordinator: 3})
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}

	m2 := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	res, err := Recover(l, m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0].TxID != 7 || res.InDoubt[0].Coordinator != 3 {
		t.Fatalf("in-doubt = %+v", res.InDoubt)
	}
	// The prepared transaction's effects must still be present (not undone).
	f := mustFetch(t, m2, key)
	rp := mustRowPage(t, f.Buf)
	if rp.LiveRows() != 1 {
		t.Errorf("prepared txn rows = %d, want 1", rp.LiveRows())
	}
	m2.Unpin(f, false)
}

func TestCheckpointShortensAnalysis(t *testing.T) {
	st := newMemStore(4096)
	l, _ := openLog(t)
	defer l.Close()
	m := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	key := page.Key{File: 1, Page: 0}
	last := logTx(t, l, m, 1, key, []types.Row{{types.NewInt(1)}})
	l.Append(&Record{Type: RecCommit, TxID: 1, PrevLSN: last})
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(l, map[uint64]*TxInfo{}, map[page.Key]uint64{}); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint loser.
	logTx(t, l, m, 2, key, []types.Row{{types.NewInt(2)}})
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}

	m2 := buffer.New(st, 16, 2, buffer.WithFlushHook(l.FlushUpTo))
	res, err := Recover(l, m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LoserTxns) != 1 || res.LoserTxns[0] != 2 {
		t.Fatalf("losers = %v", res.LoserTxns)
	}
	f := mustFetch(t, m2, key)
	rp := mustRowPage(t, f.Buf)
	if rp.LiveRows() != 1 {
		t.Errorf("live rows = %d, want 1", rp.LiveRows())
	}
	m2.Unpin(f, false)
}

func TestCheckpointEncodeDecode(t *testing.T) {
	att := map[uint64]*TxInfo{
		3: {LastLSN: 100, Status: TxActive},
		9: {LastLSN: 222, Status: TxPrepared, Coordinator: 5},
	}
	dpt := map[page.Key]uint64{
		{File: 1, Page: 2}: 50,
		{File: 4, Page: 0}: 75,
	}
	att2, dpt2, err := decodeCheckpoint(encodeCheckpoint(att, dpt))
	if err != nil {
		t.Fatal(err)
	}
	if len(att2) != 2 || att2[9].Coordinator != 5 || att2[9].Status != TxPrepared || att2[3].LastLSN != 100 {
		t.Errorf("att round trip = %+v", att2)
	}
	if len(dpt2) != 2 || dpt2[page.Key{File: 1, Page: 2}] != 50 {
		t.Errorf("dpt round trip = %+v", dpt2)
	}
}

// TestDecodeCheckpointRejectsMalformed: a checkpoint payload cut short, or
// with bytes after its DPT, is an error, not a panic or a partial table.
func TestDecodeCheckpointRejectsMalformed(t *testing.T) {
	whole := encodeCheckpoint(map[uint64]*TxInfo{3: {LastLSN: 100, Status: TxActive}},
		map[page.Key]uint64{{File: 1, Page: 2}: 50})
	for name, b := range map[string][]byte{
		"ATT count, no entry":      {5},
		"ATT entry without status": {1, 7},
		"DPT entry cut short":      {0, 3, 1},
		"empty":                    {},
		"last byte missing":        whole[:len(whole)-1],
		"trailing byte":            append(append([]byte(nil), whole...), 0),
	} {
		t.Run(name, func(t *testing.T) {
			if att, dpt, err := decodeCheckpoint(b); err == nil {
				t.Fatalf("decodeCheckpoint(%v) = %v, %v, want an error", b, att, dpt)
			}
		})
	}
}

// FuzzWALRecord: decodeRecord and decodeCheckpoint never panic on any
// bytes, and what encode and encodeCheckpoint write decodes back to the same
// record and the same tables. The checkpoint's entries come three data bytes
// apiece (transaction, file, page), so a payload holds many.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{5}, uint64(3), uint64(100), uint8(RecCheckpoint), int32(5), uint32(2))
	f.Add([]byte{1, 7}, uint64(0), uint64(0), uint8(RecInsert), int32(-1), uint32(0))
	f.Add([]byte{0, 3, 1}, uint64(1<<63), uint64(1<<40), uint8(RecPrepare), int32(1<<30), uint32(1<<31))
	f.Fuzz(func(t *testing.T, data []byte, tx, lsn uint64, typ uint8, coord int32, pg uint32) {
		_, _ = decodeRecord(data)
		_, _, _ = decodeCheckpoint(data)

		att := map[uint64]*TxInfo{tx: {LastLSN: lsn, Status: TxStatus(typ), Coordinator: coord}}
		dpt := map[page.Key]uint64{{File: page.FileID(pg), Page: pg}: lsn}
		for i := 0; i+3 <= len(data); i += 3 {
			att[uint64(data[i])] = &TxInfo{LastLSN: lsn + uint64(i), Status: TxStatus(data[i+1]), Coordinator: coord - int32(i)}
			dpt[page.Key{File: page.FileID(data[i+1]), Page: uint32(data[i+2])}] = tx + uint64(i)
		}
		ckpt := encodeCheckpoint(att, dpt)
		att2, dpt2, err := decodeCheckpoint(ckpt)
		if err != nil {
			t.Fatalf("decodeCheckpoint(encodeCheckpoint(...)): %v", err)
		}
		if !reflect.DeepEqual(att2, att) || !reflect.DeepEqual(dpt2, dpt) {
			t.Fatalf("checkpoint round trip: got %v %v, want %v %v", att2, dpt2, att, dpt)
		}

		r := &Record{Type: RecType(typ), TxID: tx, PrevLSN: lsn, Page: page.Key{File: page.FileID(pg), Page: pg},
			Slot: uint16(pg), UndoNext: lsn ^ tx, Coordinator: coord, Row: append([]byte(nil), data...), Checkpoint: ckpt}
		got, err := decodeRecord(r.encode())
		if err != nil {
			t.Fatalf("decodeRecord(encode()): %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record round trip: got %+v, want %+v", got, r)
		}
	})
}

func TestMaxTxIDReported(t *testing.T) {
	l, _ := openLog(t)
	defer l.Close()
	l.Append(&Record{Type: RecBegin, TxID: 41})
	l.Append(&Record{Type: RecCommit, TxID: 41})
	st := newMemStore(1024)
	m := buffer.New(st, 4, 1)
	res, err := Recover(l, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxTxID != 41 {
		t.Errorf("MaxTxID = %d", res.MaxTxID)
	}
}

// TestRecoveryQuickProperty: random interleavings of committed and
// uncommitted transactions must recover to exactly the committed set.
func TestRecoveryQuickProperty(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		st := newMemStore(8192)
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		m := buffer.New(st, 32, 2, buffer.WithFlushHook(l.FlushUpTo))
		key := page.Key{File: 1, Page: uint32(trial % 3)}

		rng := trial*7919 + 13
		committed := map[int64]bool{}
		for tx := uint64(1); tx <= 6; tx++ {
			val := int64(tx * 100)
			last := logTx(t, l, m, tx, key, []types.Row{{types.NewInt(val)}})
			rng = rng*1103515245 + 12345
			if (rng>>16)&1 == 0 {
				l.Append(&Record{Type: RecCommit, TxID: tx, PrevLSN: last})
				committed[val] = true
			}
		}
		// Random crash point: sometimes flush pages, sometimes not.
		if trial%2 == 0 {
			if err := m.FlushAll(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		m2 := buffer.New(st, 32, 2, buffer.WithFlushHook(l2.FlushUpTo))
		if _, err := Recover(l2, m2); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		f := mustFetch(t, m2, key)
		rp := mustRowPage(t, f.Buf)
		got := map[int64]bool{}
		rp.Scan(nil, nil, func(slot int, r types.Row) bool { got[r[0].Int()] = true; return true })
		m2.Unpin(f, false)
		if len(got) != len(committed) {
			t.Fatalf("trial %d: recovered %v, want %v", trial, got, committed)
		}
		for v := range committed {
			if !got[v] {
				t.Fatalf("trial %d: lost committed %d", trial, v)
			}
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
