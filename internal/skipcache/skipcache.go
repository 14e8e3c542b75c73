// Package skipcache implements HRDBMS's predicate-based data skipping
// (Section III), the paper's second novel contribution: during a table
// scan the system records which pages contained no rows matching the scan's
// predicate, and later scans skip a page if their predicate is identical to
// — or logically implies — a cached predicate for that page. The package
// also provides classic min-max small-materialized-aggregate (SMA) skipping
// as the baseline the paper generalizes.
//
// Cached entries stay valid because inserts are append-only into fresh
// pages and updates are out-of-place; only a table reorganize invalidates
// the cache (InvalidateFile).
package skipcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/page"
	"repro/internal/types"
)

// CmpOp is a comparison operator in an atomic predicate.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Pred is an atomic predicate: column op constant.
type Pred struct {
	Col string
	Op  CmpOp
	Val types.Value
}

// Matches evaluates the predicate against a value (NULL never matches). It
// is the semantics Implies must be sound for: TestImpliesSoundness checks
// Implies against it.
func (p Pred) Matches(v types.Value) bool {
	if v.IsNull() || p.Val.IsNull() {
		return false
	}
	c := types.Compare(v, p.Val)
	switch p.Op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// String renders the predicate canonically.
func (p Pred) String() string {
	return fmt.Sprintf("%s%s%s", p.Col, p.Op, p.Val)
}

// Implies reports whether p ⇒ q: every value satisfying p also satisfies
// q. Predicates on different columns never imply each other.
func (p Pred) Implies(q Pred) bool {
	if p.Col != q.Col {
		return false
	}
	cmp := types.Compare(p.Val, q.Val)
	switch q.Op {
	case OpEq:
		return p.Op == OpEq && cmp == 0
	case OpNe:
		switch p.Op {
		case OpEq:
			return cmp != 0
		case OpNe:
			return cmp == 0
		case OpLt:
			return cmp <= 0 // x < a, a ≤ b ⇒ x ≠ b
		case OpLe:
			return cmp < 0
		case OpGt:
			return cmp >= 0
		case OpGe:
			return cmp > 0
		}
	case OpLt:
		switch p.Op {
		case OpEq:
			return cmp < 0
		case OpLt:
			return cmp <= 0 // x < a, a ≤ b ⇒ x < b
		case OpLe:
			return cmp < 0 // x ≤ a, a < b ⇒ x < b
		}
	case OpLe:
		switch p.Op {
		case OpEq:
			return cmp <= 0
		case OpLt:
			return cmp <= 0 // x < a, a ≤ b ⇒ x < b ⇒ x ≤ b
		case OpLe:
			return cmp <= 0
		}
	case OpGt:
		switch p.Op {
		case OpEq:
			return cmp > 0
		case OpGt:
			return cmp >= 0
		case OpGe:
			return cmp > 0
		}
	case OpGe:
		switch p.Op {
		case OpEq:
			return cmp >= 0
		case OpGt:
			return cmp >= 0
		case OpGe:
			return cmp >= 0
		}
	}
	return false
}

// Conj is a conjunction of atomic predicates.
type Conj []Pred

// Canonical returns a normalized string key for the conjunction (sorted
// atomic predicates), used for exact-match lookups and persistence.
func (c Conj) Canonical() string {
	parts := make([]string, len(c))
	for i, p := range c {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

// Implies reports whether c ⇒ d using the sufficient condition: every
// atomic predicate of d is implied by some atomic predicate of c.
func (c Conj) Implies(d Conj) bool {
	if len(d) == 0 {
		return false
	}
	for _, q := range d {
		found := false
		for _, p := range c {
			if p.Implies(q) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// cacheEntry stores a predicate with its precomputed canonical key so
// duplicate detection stays O(1) per comparison.
type cacheEntry struct {
	conj Conj
	key  string
}

// Cache is the per-node predicate cache: page → predicates known to match
// no row on that page.
type Cache struct {
	mu         sync.RWMutex
	m          map[page.Key][]cacheEntry
	maxPerPage int
	hits       int64
	misses     int64
}

// NewCache creates a cache keeping at most maxPerPage predicates per page
// (oldest evicted first). maxPerPage ≤ 0 means unlimited.
func NewCache(maxPerPage int) *Cache {
	return &Cache{m: map[page.Key][]cacheEntry{}, maxPerPage: maxPerPage}
}

// Record notes that a completed scan found no rows matching theta on page p.
func (c *Cache) Record(p page.Key, theta Conj) {
	if len(theta) == 0 {
		return
	}
	key := theta.Canonical()
	c.mu.Lock()
	defer c.mu.Unlock()
	existing := c.m[p]
	for _, e := range existing {
		if e.key == key {
			return
		}
	}
	existing = append(existing, cacheEntry{conj: theta, key: key})
	if c.maxPerPage > 0 && len(existing) > c.maxPerPage {
		existing = existing[len(existing)-c.maxPerPage:]
	}
	c.m[p] = existing
}

// CanSkip reports whether page p can be skipped for a scan with predicate
// theta: theta equals or implies some cached predicate for p.
func (c *Cache) CanSkip(p page.Key, theta Conj) bool {
	if len(theta) == 0 {
		return false
	}
	c.mu.RLock()
	cached := c.m[p]
	c.mu.RUnlock()
	for _, e := range cached {
		if theta.Implies(e.conj) {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return false
}

// InvalidateFile drops every entry for a file (table reorganize).
func (c *Cache) InvalidateFile(f page.FileID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.m {
		if k.File == f {
			delete(c.m, k)
		}
	}
}

// Stats returns (hits, misses) of CanSkip decisions.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses
}

// Entries returns the number of (page, predicate) pairs cached.
func (c *Cache) Entries() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, v := range c.m {
		n += len(v)
	}
	return n
}

// SizeBytes estimates the in-memory footprint of the cache, used to
// reproduce the paper's 250 MB/node footprint estimate.
func (c *Cache) SizeBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, preds := range c.m {
		total += 12 // page key
		for _, e := range preds {
			total += 16 // slice header
			for _, p := range e.conj {
				total += int64(len(p.Col)) + 1 + int64(types.EncodedSize(p.Val)) + 16
			}
		}
	}
	return total
}

// Persist writes the cache to disk; Load restores it. The paper persists
// predicate caches periodically and reloads them at database restart.
func (c *Cache) Persist(path string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("skipcache: persist: %w", err)
	}
	w := bufio.NewWriter(f)
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(c.m)))
	for k, preds := range c.m {
		buf = binary.AppendUvarint(buf, uint64(k.File))
		buf = binary.AppendUvarint(buf, uint64(k.Page))
		buf = binary.AppendUvarint(buf, uint64(len(preds)))
		for _, e := range preds {
			buf = binary.AppendUvarint(buf, uint64(len(e.conj)))
			for _, p := range e.conj {
				buf = binary.AppendUvarint(buf, uint64(len(p.Col)))
				buf = append(buf, p.Col...)
				buf = append(buf, byte(p.Op))
				buf = types.AppendValue(buf, p.Val)
			}
		}
	}
	if _, err := w.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load restores a cache persisted with Persist.
func Load(path string, maxPerPage int) (*Cache, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("skipcache: load: %w", err)
	}
	c := NewCache(maxPerPage)
	pos := 0
	readU := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("skipcache: corrupt cache file")
		}
		pos += n
		return v, nil
	}
	nPages, err := readU()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nPages; i++ {
		file, err := readU()
		if err != nil {
			return nil, err
		}
		pg, err := readU()
		if err != nil {
			return nil, err
		}
		nPreds, err := readU()
		if err != nil {
			return nil, err
		}
		key := page.Key{File: page.FileID(file), Page: uint32(pg)}
		for j := uint64(0); j < nPreds; j++ {
			nAtoms, err := readU()
			if err != nil {
				return nil, err
			}
			conj := make(Conj, 0, nAtoms)
			for a := uint64(0); a < nAtoms; a++ {
				colLen, err := readU()
				if err != nil {
					return nil, err
				}
				if pos+int(colLen) > len(b) {
					return nil, fmt.Errorf("skipcache: corrupt column name")
				}
				col := string(b[pos : pos+int(colLen)])
				pos += int(colLen)
				if pos >= len(b) {
					return nil, fmt.Errorf("skipcache: corrupt operator")
				}
				op := CmpOp(b[pos])
				pos++
				v, n, err := types.DecodeValue(b[pos:])
				if err != nil {
					return nil, err
				}
				pos += n
				conj = append(conj, Pred{Col: col, Op: op, Val: v})
			}
			c.m[key] = append(c.m[key], cacheEntry{conj: conj, key: conj.Canonical()})
		}
	}
	return c, nil
}
