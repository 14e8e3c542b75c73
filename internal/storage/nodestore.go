// Package storage implements HRDBMS's node-local table storage (Section
// III): page files spread across the node's disks, row and PAX-columnar
// table fragments, bulk loading with clustering, table scans with
// predicate-based data skipping and scan pre-declaration, and reorganize.
//
// Tables are partitioned across nodes by the catalog's partitioning
// strategy; within a node, rows spread across the node's disks. Each
// (table, disk) pair is one page file.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/page"
)

// DiskStore implements buffer.Store over the registered page files of one
// node, routing page reads/writes to the owning file.
type DiskStore struct {
	mu       sync.RWMutex
	files    map[page.FileID]*page.File
	nextFile page.FileID
	pageSize int

	// Metering for the performance model.
	PagesRead    atomic.Int64
	PagesWritten atomic.Int64
}

// NewDiskStore creates an empty registry with the given page size.
func NewDiskStore(pageSize int) *DiskStore {
	return &DiskStore{files: map[page.FileID]*page.File{}, nextFile: 1, pageSize: pageSize}
}

// Register opens (or creates) a page file and returns its ID.
func (d *DiskStore) Register(path string, compress bool) (page.FileID, error) {
	f, err := page.OpenFile(path, d.pageSize, compress)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextFile
	d.nextFile++
	d.files[id] = f
	return id, nil
}

// File returns the registered page file.
func (d *DiskStore) File(id page.FileID) (*page.File, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[id]
	if !ok {
		return nil, fmt.Errorf("storage: unknown file %d", id)
	}
	return f, nil
}

// ReadPage implements buffer.Store.
func (d *DiskStore) ReadPage(id page.FileID, pageNum uint32, buf []byte) error {
	f, err := d.File(id)
	if err != nil {
		return err
	}
	d.PagesRead.Add(1)
	// Reads of never-written (allocated) pages come back zeroed.
	if pageNum >= f.NumPages() {
		clear(buf)
		return nil
	}
	return f.ReadPage(pageNum, buf)
}

// WritePage implements buffer.Store.
func (d *DiskStore) WritePage(id page.FileID, pageNum uint32, buf []byte) error {
	f, err := d.File(id)
	if err != nil {
		return err
	}
	d.PagesWritten.Add(1)
	return f.WritePage(pageNum, buf)
}

// PageSize implements buffer.Store.
func (d *DiskStore) PageSize() int { return d.pageSize }

// Close closes every file.
func (d *DiskStore) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var firstErr error
	for _, f := range d.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// NodeStore is the storage stack of one worker node: its disks (directories),
// disk store, and buffer manager.
type NodeStore struct {
	NodeID   int
	Disks    []string
	Store    *DiskStore
	Buf      *buffer.Manager
	pageSize int

	// RowsScanned counts rows produced by table scans on this node (the
	// sequential-scan work term of the performance model).
	RowsScanned atomic.Int64

	mu        sync.Mutex
	nextAlloc map[page.FileID]uint32 // allocation high-water mark per file
}

// NodeConfig configures a node store.
type NodeConfig struct {
	NodeID     int
	BaseDir    string // one subdirectory per disk is created here
	NumDisks   int
	PageSize   int
	BufFrames  int
	BufStripes int
	FlushHook  func(lsn uint64) error
}

// NewNodeStore builds the storage stack, creating disk directories.
func NewNodeStore(cfg NodeConfig) (*NodeStore, error) {
	if cfg.NumDisks < 1 {
		cfg.NumDisks = 1
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = page.DefaultPageSize
	}
	if cfg.BufFrames == 0 {
		cfg.BufFrames = 256
	}
	if cfg.BufStripes == 0 {
		cfg.BufStripes = 4
	}
	ns := &NodeStore{
		NodeID:    cfg.NodeID,
		Store:     NewDiskStore(cfg.PageSize),
		pageSize:  cfg.PageSize,
		nextAlloc: map[page.FileID]uint32{},
	}
	for i := 0; i < cfg.NumDisks; i++ {
		dir := filepath.Join(cfg.BaseDir, fmt.Sprintf("node%d", cfg.NodeID), fmt.Sprintf("disk%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: mkdir %s: %w", dir, err)
		}
		ns.Disks = append(ns.Disks, dir)
	}
	var opts []buffer.Option
	if cfg.FlushHook != nil {
		opts = append(opts, buffer.WithFlushHook(cfg.FlushHook))
	}
	ns.Buf = buffer.New(ns.Store, cfg.BufFrames, cfg.BufStripes, opts...)
	return ns, nil
}

// PageSize returns the node's page size.
func (ns *NodeStore) PageSize() int { return ns.pageSize }

// OpenFile registers a page file on the given disk for a table fragment.
func (ns *NodeStore) OpenFile(disk int, name string, compress bool) (page.FileID, error) {
	if disk < 0 || disk >= len(ns.Disks) {
		return 0, fmt.Errorf("storage: node %d has no disk %d", ns.NodeID, disk)
	}
	id, err := ns.Store.Register(filepath.Join(ns.Disks[disk], name), compress)
	if err != nil {
		return 0, err
	}
	f, _ := ns.Store.File(id)
	ns.mu.Lock()
	ns.nextAlloc[id] = f.NumPages()
	ns.mu.Unlock()
	return id, nil
}

// Allocate reserves the next page number in a file.
func (ns *NodeStore) Allocate(id page.FileID) uint32 {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := ns.nextAlloc[id]
	ns.nextAlloc[id] = n + 1
	return n
}

// NumPages returns the allocation high-water mark of a file.
func (ns *NodeStore) NumPages(id page.FileID) uint32 {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.nextAlloc[id]
}

// Close flushes buffers and closes files.
func (ns *NodeStore) Close() error {
	if err := ns.Buf.FlushAll(); err != nil {
		return err
	}
	return ns.Store.Close()
}
