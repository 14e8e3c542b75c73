package index

import (
	"encoding/binary"
	"fmt"

	"repro/internal/page"
	"repro/internal/types"
)

// BTree is a disk-resident B+-tree. Page 0 of its file is the meta page
// (root page number + allocation high-water mark); other pages are nodes.
//
// Node page layout, after the common page header:
//
//	[0]    isLeaf
//	[1:5]  entry count
//	[5:9]  right sibling (leaf) / leftmost child (internal)
//	then entries: encoded key row, followed by a RID (leaf) or child page
//	number (internal). Internal entry i routes keys in [key[i], key[i+1]).
//
// Deletion removes entries from leaves without rebalancing (underflowing
// nodes are tolerated); the table-reorganize path rebuilds indexes.
type BTree struct {
	space Space
	root  uint32
}

const (
	btMetaPage   = uint32(0)
	nodeHdrStart = 17 // page common header size
	nodeHdrLen   = 9
)

// CreateBTree initializes an empty tree in a fresh file.
func CreateBTree(space Space) (*BTree, error) {
	meta, err := space.Allocate()
	if err != nil {
		return nil, err
	}
	if meta != btMetaPage {
		return nil, fmt.Errorf("index: btree meta page allocated as %d", meta)
	}
	rootNum, err := space.Allocate()
	if err != nil {
		return nil, err
	}
	t := &BTree{space: space, root: rootNum}
	f, err := space.Fetch(rootNum)
	if err != nil {
		return nil, err
	}
	initNode(f.Buf, true)
	space.Unpin(f, true)
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *BTree) writeMeta() error {
	f, err := t.space.Fetch(btMetaPage)
	if err != nil {
		return err
	}
	for i := range f.Buf[:nodeHdrStart] {
		f.Buf[i] = 0
	}
	f.Buf[8] = page.TypeMeta
	binary.LittleEndian.PutUint32(f.Buf[nodeHdrStart:], t.root)
	var next uint32
	if bs, ok := t.space.(*BufferSpace); ok {
		next = bs.NextPage()
	}
	binary.LittleEndian.PutUint32(f.Buf[nodeHdrStart+4:], next)
	t.space.Unpin(f, true)
	return nil
}

// node is the decoded in-memory form of one tree page.
type node struct {
	pageNum  uint32
	isLeaf   bool
	keys     []types.Row
	rids     []page.RID // leaves
	children []uint32   // internal: len(keys)+1, children[0] = leftmost
	right    uint32     // leaf sibling
}

func initNode(buf []byte, leaf bool) {
	for i := range buf[:nodeHdrStart+nodeHdrLen] {
		buf[i] = 0
	}
	buf[8] = page.TypeIndex
	if leaf {
		buf[nodeHdrStart] = 1
	}
}

func decodeNode(pageNum uint32, buf []byte) (*node, error) {
	if page.TypeOf(buf) != page.TypeIndex {
		return nil, fmt.Errorf("index: page %d is not an index page", pageNum)
	}
	n := &node{pageNum: pageNum, isLeaf: buf[nodeHdrStart] == 1}
	count := int(binary.LittleEndian.Uint32(buf[nodeHdrStart+1:]))
	extra := binary.LittleEndian.Uint32(buf[nodeHdrStart+5:])
	pos := nodeHdrStart + nodeHdrLen
	if n.isLeaf {
		n.right = extra
	} else {
		n.children = append(n.children, extra)
	}
	for i := 0; i < count; i++ {
		key, m, err := types.DecodeRow(buf[pos:])
		if err != nil {
			return nil, fmt.Errorf("index: node %d key %d: %w", pageNum, i, err)
		}
		pos += m
		n.keys = append(n.keys, key)
		if n.isLeaf {
			rid, err := decodeRID(buf[pos:])
			if err != nil {
				return nil, err
			}
			pos += 10
			n.rids = append(n.rids, rid)
		} else {
			n.children = append(n.children, binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
		}
	}
	return n, nil
}

// encodedSize returns the byte size of the node payload.
func (n *node) encodedSize() int {
	sz := nodeHdrLen
	for i, k := range n.keys {
		sz += types.RowEncodedSize(k)
		if n.isLeaf {
			sz += 10
		} else {
			sz += 4
		}
		_ = i
	}
	return sz
}

func (n *node) encode(buf []byte) {
	initNode(buf, n.isLeaf)
	binary.LittleEndian.PutUint32(buf[nodeHdrStart+1:], uint32(len(n.keys)))
	if n.isLeaf {
		binary.LittleEndian.PutUint32(buf[nodeHdrStart+5:], n.right)
	} else {
		binary.LittleEndian.PutUint32(buf[nodeHdrStart+5:], n.children[0])
	}
	pos := nodeHdrStart + nodeHdrLen
	scratch := buf[pos:pos]
	for i, k := range n.keys {
		scratch = types.AppendRow(scratch, k)
		if n.isLeaf {
			scratch = appendRID(scratch, n.rids[i])
		} else {
			var cb [4]byte
			binary.LittleEndian.PutUint32(cb[:], n.children[i+1])
			scratch = append(scratch, cb[:]...)
		}
	}
}

// compareKeys orders rows lexicographically.
func compareKeys(a, b types.Row) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

func (t *BTree) readNode(pageNum uint32) (*node, error) {
	f, err := t.space.Fetch(pageNum)
	if err != nil {
		return nil, err
	}
	defer t.space.Unpin(f, false)
	return decodeNode(pageNum, f.Buf)
}

func (t *BTree) writeNode(n *node) error {
	f, err := t.space.Fetch(n.pageNum)
	if err != nil {
		return err
	}
	n.encode(f.Buf)
	t.space.Unpin(f, true)
	return nil
}

// maxPayload is the node payload budget within a page.
func (t *BTree) maxPayload() int { return t.space.PageSize() - nodeHdrStart }

// Insert adds a (key, rid) entry. Duplicate keys are allowed.
func (t *BTree) Insert(key types.Row, rid page.RID) error {
	promoKey, promoChild, err := t.insertAt(t.root, key, rid)
	if err != nil {
		return err
	}
	if promoChild == 0 {
		return nil
	}
	// Root split: build a new root.
	newRootNum, err := t.space.Allocate()
	if err != nil {
		return err
	}
	newRoot := &node{
		pageNum:  newRootNum,
		isLeaf:   false,
		keys:     []types.Row{promoKey},
		children: []uint32{t.root, promoChild},
	}
	if err := t.writeNode(newRoot); err != nil {
		return err
	}
	t.root = newRootNum
	return t.writeMeta()
}

// insertAt descends into pageNum; on child split it returns the promoted
// separator key and new right-sibling page (0 when no split).
func (t *BTree) insertAt(pageNum uint32, key types.Row, rid page.RID) (types.Row, uint32, error) {
	n, err := t.readNode(pageNum)
	if err != nil {
		return nil, 0, err
	}
	if n.isLeaf {
		// Insert in key order (stable after equal keys).
		idx := len(n.keys)
		for i, k := range n.keys {
			if compareKeys(key, k) < 0 {
				idx = i
				break
			}
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = key
		n.rids = append(n.rids, page.RID{})
		copy(n.rids[idx+1:], n.rids[idx:])
		n.rids[idx] = rid
		return t.finishInsert(n)
	}
	// Route to child: last child whose separator ≤ key.
	ci := 0
	for i, k := range n.keys {
		if compareKeys(key, k) >= 0 {
			ci = i + 1
		} else {
			break
		}
	}
	promoKey, promoChild, err := t.insertAt(n.children[ci], key, rid)
	if err != nil {
		return nil, 0, err
	}
	if promoChild == 0 {
		return nil, 0, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoKey
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = promoChild
	return t.finishInsert(n)
}

// finishInsert writes n back, splitting first if it no longer fits.
func (t *BTree) finishInsert(n *node) (types.Row, uint32, error) {
	if n.encodedSize() <= t.maxPayload() && len(n.keys) > 0 {
		return nil, 0, t.writeNode(n)
	}
	if len(n.keys) < 2 {
		return nil, 0, fmt.Errorf("index: key too large for page size %d", t.space.PageSize())
	}
	mid := len(n.keys) / 2
	rightNum, err := t.space.Allocate()
	if err != nil {
		return nil, 0, err
	}
	right := &node{pageNum: rightNum, isLeaf: n.isLeaf}
	var sep types.Row
	if n.isLeaf {
		sep = n.keys[mid]
		right.keys = append(right.keys, n.keys[mid:]...)
		right.rids = append(right.rids, n.rids[mid:]...)
		right.right = n.right
		n.keys = n.keys[:mid]
		n.rids = n.rids[:mid]
		n.right = rightNum
	} else {
		sep = n.keys[mid]
		right.keys = append(right.keys, n.keys[mid+1:]...)
		right.children = append(right.children, n.children[mid+1:]...)
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
	}
	if err := t.writeNode(n); err != nil {
		return nil, 0, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, 0, err
	}
	return sep, rightNum, nil
}

// findLeaf descends to the leftmost leaf that can hold key. Descent is
// left-biased on equality: duplicates of a separator key may remain in the
// left sibling of the leaf the separator points at, and the subsequent
// right-sibling walk picks up the rest.
func (t *BTree) findLeaf(key types.Row) (*node, error) {
	pageNum := t.root
	for {
		n, err := t.readNode(pageNum)
		if err != nil {
			return nil, err
		}
		if n.isLeaf {
			return n, nil
		}
		ci := 0
		for i, k := range n.keys {
			if compareKeys(key, k) > 0 {
				ci = i + 1
			} else {
				break
			}
		}
		pageNum = n.children[ci]
	}
}

// Search returns the RIDs of all entries exactly matching key.
func (t *BTree) Search(key types.Row) ([]page.RID, error) {
	var out []page.RID
	err := t.Range(key, key, func(k types.Row, rid page.RID) bool {
		out = append(out, rid)
		return true
	})
	return out, err
}

// Range iterates entries with lo ≤ key ≤ hi in key order. A nil lo starts
// at the smallest key; a nil hi runs to the end. fn returning false stops.
func (t *BTree) Range(lo, hi types.Row, fn func(key types.Row, rid page.RID) bool) error {
	var n *node
	var err error
	if lo == nil {
		// Walk to the leftmost leaf.
		pageNum := t.root
		for {
			n, err = t.readNode(pageNum)
			if err != nil {
				return err
			}
			if n.isLeaf {
				break
			}
			pageNum = n.children[0]
		}
	} else {
		n, err = t.findLeaf(lo)
		if err != nil {
			return err
		}
	}
	for {
		for i, k := range n.keys {
			if lo != nil && compareKeys(k, lo) < 0 {
				continue
			}
			if hi != nil && compareKeys(k, hi) > 0 {
				return nil
			}
			if !fn(k, n.rids[i]) {
				return nil
			}
		}
		if n.right == 0 {
			return nil
		}
		n, err = t.readNode(n.right)
		if err != nil {
			return err
		}
	}
}

// Delete removes the first entry matching (key, rid). Reports whether an
// entry was removed. No rebalancing is performed.
func (t *BTree) Delete(key types.Row, rid page.RID) (bool, error) {
	n, err := t.findLeaf(key)
	if err != nil {
		return false, err
	}
	for {
		for i, k := range n.keys {
			c := compareKeys(k, key)
			if c > 0 {
				return false, nil
			}
			if c == 0 && n.rids[i] == rid {
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.rids = append(n.rids[:i], n.rids[i+1:]...)
				return true, t.writeNode(n)
			}
		}
		if n.right == 0 {
			return false, nil
		}
		n, err = t.readNode(n.right)
		if err != nil {
			return false, err
		}
	}
}
