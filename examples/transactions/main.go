// Transactions: HRDBMS's serializable side (Section VI) — DML under
// hierarchical two-phase commit, SS2PL page locks, and ARIES recovery
// bringing a crashed worker back to a consistent state.
//
//	go run ./examples/transactions
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

func main() {
	dir, err := os.MkdirTemp("", "hrdbms-txn-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := core.Open(core.Config{Workers: 3, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must := func(sql string) *core.Result {
		res, err := db.Exec(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		return res
	}

	// Accounts spread over 3 workers by hash; every multi-row statement is
	// one distributed transaction committed with tree-topology 2PC.
	must(`CREATE TABLE account (id INT, owner VARCHAR(20), balance FLOAT)
	      PARTITION BY HASH(id)`)
	must(`INSERT INTO account VALUES
	      (1, 'amara', 1000), (2, 'bjorn', 500), (3, 'chen', 250),
	      (4, 'divya', 800), (5, 'emeka', 90)`)
	fmt.Println(must(`SELECT count(*), sum(balance) FROM account`).Rows[0])

	// A cross-worker "transfer": two updates in independent statements
	// (each is its own 2PC transaction; atomicity within each statement).
	must(`UPDATE account SET balance = balance - 100 WHERE id = 1`)
	must(`UPDATE account SET balance = balance + 100 WHERE id = 5`)
	res := must(`SELECT owner, balance FROM account ORDER BY id`)
	fmt.Println("after transfer:")
	for _, r := range res.Rows {
		fmt.Println("  ", r)
	}
	total := must(`SELECT sum(balance) FROM account`).Rows[0][0]
	fmt.Printf("invariant: total balance still %v\n", total)

	// Crash recovery demo on a standalone transaction manager: a committed
	// transaction survives a crash; an in-flight one is rolled back by
	// ARIES analysis/redo/undo.
	fmt.Println("\ncrash-recovery demo (standalone worker):")
	crashDir := filepath.Join(dir, "crash")
	os.MkdirAll(crashDir, 0o755)
	logPath := filepath.Join(crashDir, "wal.log")
	store := newMemPages(4096)

	walLog, err := wal.Open(logPath)
	if err != nil {
		log.Fatal(err)
	}
	buf := buffer.New(store, 16, 2, buffer.WithFlushHook(walLog.FlushUpTo))
	mgr := txn.NewManager(walLog, txn.NewLockManager(0), buf)
	k := page.Key{File: 1, Page: 0}

	committed := mgr.Begin()
	writeRow(buf, committed, k, "durable")
	if err := mgr.Commit(committed); err != nil {
		log.Fatal(err)
	}
	loser := mgr.Begin()
	writeRow(buf, loser, k, "in-flight")
	// The dirty page may hit disk before the crash (steal).
	if err := buf.FlushAll(); err != nil {
		log.Fatal(err)
	}
	// CRASH: the loser never commits.
	if err := walLog.Close(); err != nil {
		log.Fatal(err)
	}

	walLog2, err := wal.Open(logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer walLog2.Close()
	buf2 := buffer.New(store, 16, 2, buffer.WithFlushHook(walLog2.FlushUpTo))
	result, err := wal.Recover(walLog2, buf2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recovery: redone=%d undone=%d losers=%v\n",
		result.RedoneRecords, result.UndoneRecords, result.LoserTxns)
	f, err := buf2.Fetch(k)
	if err != nil {
		log.Fatal(err)
	}
	rp, err := page.AsRowPage(f.Buf)
	if err != nil {
		log.Fatal(err)
	}
	rp.Scan(nil, nil, func(slot int, r types.Row) bool {
		fmt.Printf("  surviving row: %v\n", r)
		return true
	})
	buf2.Unpin(f, false)
}

func writeRow(buf *buffer.Manager, tx *txn.Tx, k page.Key, val string) {
	if err := tx.LockPage(k, true); err != nil {
		log.Fatal(err)
	}
	f, err := buf.Fetch(k)
	if err != nil {
		log.Fatal(err)
	}
	if page.TypeOf(f.Buf) == page.TypeFree {
		page.InitRowPage(f.Buf)
	}
	rp, _ := page.AsRowPage(f.Buf)
	enc := types.AppendRow(nil, types.Row{types.NewString(val)})
	slot, ok := rp.InsertEncoded(enc)
	if !ok {
		log.Fatal("page full")
	}
	lsn := tx.LogInsert(k, uint16(slot), enc)
	page.SetLSN(f.Buf, lsn)
	buf.Unpin(f, true)
}

// memPages is a minimal in-memory page store for the recovery demo.
type memPages struct {
	pages    map[page.Key][]byte
	pageSize int
}

func newMemPages(size int) *memPages {
	return &memPages{pages: map[page.Key][]byte{}, pageSize: size}
}

func (s *memPages) ReadPage(f page.FileID, n uint32, buf []byte) error {
	if b, ok := s.pages[page.Key{File: f, Page: n}]; ok {
		copy(buf, b)
		return nil
	}
	clear(buf)
	return nil
}

func (s *memPages) WritePage(f page.FileID, n uint32, buf []byte) error {
	b := make([]byte, len(buf))
	copy(b, buf)
	s.pages[page.Key{File: f, Page: n}] = b
	return nil
}

func (s *memPages) PageSize() int { return s.pageSize }
