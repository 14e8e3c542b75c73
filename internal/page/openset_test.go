package page

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// openSetGens are single-column value streams, one per way a column can seal;
// chain marks the ones with no typed candidate.
var openSetGens = []struct {
	name  string
	chain bool
	gen   func(r *rand.Rand, i int) types.Value
}{
	{"float", false, func(r *rand.Rand, i int) types.Value { return types.NewFloat(r.Float64() * 1e6) }},
	{"float-nulls", false, func(r *rand.Rand, i int) types.Value {
		if r.Intn(3) == 0 {
			return types.Null
		}
		return types.NewFloat(float64(r.Intn(1000)))
	}},
	{"int-narrow", false, func(r *rand.Rand, i int) types.Value { return types.NewInt(1000 + int64(r.Intn(50))) }},
	{"int-widening", false, func(r *rand.Rand, i int) types.Value { return types.NewInt(int64(i) * int64(i) * 65537) }},
	{"int-varint-smaller", false, func(r *rand.Rand, i int) types.Value {
		if i%300 == 299 {
			return types.NewInt(math.MaxInt64 - int64(i)) // forces width 8; the tagged stream stays smaller
		}
		return types.NewInt(int64(r.Intn(1000)))
	}},
	{"date", false, func(r *rand.Rand, i int) types.Value { return types.NewDate(9000 + int64(r.Intn(2500))) }},
	{"bool", false, func(r *rand.Rand, i int) types.Value { return types.NewBool(r.Intn(2) == 0) }},
	{"all-null", false, func(r *rand.Rand, i int) types.Value { return types.Null }},
	{"string-dict", false, func(r *rand.Rand, i int) types.Value { return types.NewString(fmt.Sprintf("MODE-%d", r.Intn(7))) }},
	{"string-highcard", true, func(r *rand.Rand, i int) types.Value {
		return types.NewString(fmt.Sprintf("comment %d about %d", i, r.Int63()))
	}},
	{"string-long-few-distinct", true, func(r *rand.Rand, i int) types.Value { // under 256 distinct, yet a dictionary saves nothing
		return types.NewString(strings.Repeat(fmt.Sprintf("%d-", i), 20))
	}},
	{"string-dict-then-highcard", false, func(r *rand.Rand, i int) types.Value { // the dictionary page fills before it stops paying
		if i < 200 {
			return types.NewString("the same long repeated dictionary entry")
		}
		return types.NewString(strings.Repeat(fmt.Sprintf("%04d-", i), 20))
	}},
	{"mixed", true, func(r *rand.Rand, i int) types.Value {
		if i%9 == 4 {
			return types.NewInt(int64(i))
		}
		return types.NewString(fmt.Sprintf("v%d", i%5))
	}},
}

// legacySeal is the reference the open set is held to: the same cells
// appended to one oversized tagged page and sealed by ColumnPage.Seal. It
// returns the sealed page, the tagged stream's length, and the smallest
// candidate's size — the sealed payload for a typed layout, else the stream.
func legacySeal(vals []types.Value) (p ColumnPage, tagged, smallest int) {
	p = InitColumnPage(make([]byte, 1<<20))
	for _, v := range vals {
		if !p.Append(v) {
			panic("legacySeal: reference page too small")
		}
	}
	tagged = p.payloadLen()
	p.Seal()
	smallest = tagged
	if l := int(p.Buf[colOffFlags] >> 1); l == layoutFixed || l == layoutDict {
		smallest = p.payloadLen()
	}
	return p, tagged, smallest
}

// TestOpenSetAdmissionMatchesSeal: a one-column open set admits a value
// exactly while the column's smallest candidate, as ColumnPage.Seal sizes
// them, fits a page (a column with no typed candidate: while its chain stays
// within MaxChainPages), and the page it then writes is byte for byte the
// page Seal would have produced from the same cells.
func TestOpenSetAdmissionMatchesSeal(t *testing.T) {
	for _, pageSize := range []int{512, 2048, 16384} {
		for gi, g := range openSetGens {
			t.Run(fmt.Sprintf("%d/%s", pageSize, g.name), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(pageSize + gi)))
				os, cap := NewOpenSet(1, pageSize), pageSize-colHeaderSize
				var vals []types.Value
				for i := 0; ; i++ {
					v := g.gen(r, i)
					ok, err := os.Append(types.Row{v})
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						vals = append(vals, v) // with the refused value
						break
					}
					vals = append(vals, v)
				}
				admitted := vals[:len(vals)-1]
				if os.NumRows() != len(admitted) || len(admitted) == 0 {
					t.Fatalf("NumRows %d after %d admitted values", os.NumRows(), len(admitted))
				}
				ref, _, fit := legacySeal(admitted)
				_, _, over := legacySeal(vals)
				set := os.Snapshot([]int{0})
				if g.chain {
					if n := os.ChainPages(0); n != MaxChainPages {
						t.Fatalf("closed with a chain of %d pages, want %d", n, MaxChainPages)
					}
					if !set.Pages[0].ChainHead() || ref.Buf[colOffFlags]>>1 != layoutTagged {
						t.Fatalf("chained, but its page has flags %#x and Seal picks flags %#x", set.Pages[0].Buf[colOffFlags], ref.Buf[colOffFlags])
					}
				} else {
					if fit > cap {
						t.Fatalf("%d values were admitted but their smallest candidate is %d > %d bytes", len(admitted), fit, cap)
					}
					if over <= cap {
						t.Fatalf("value %d was refused but the smallest candidate with it is %d <= %d bytes", len(vals), over, cap)
					}
					got := set.Pages[0]
					end := colHeaderSize + ref.payloadLen()
					if !bytes.Equal(got.Buf[:end], ref.Buf[:end]) || strings.Trim(string(got.Buf[end:]), "\x00") != "" {
						t.Fatalf("written page (flags %#x, %d bytes) differs from the sealed reference (flags %#x, %d bytes)",
							got.Buf[colOffFlags], got.payloadLen(), ref.Buf[colOffFlags], ref.payloadLen())
					}
				}
				rows, err := set.Rows()
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range admitted {
					if !reflect.DeepEqual(bitsOf(rows[i]), bitsOf([]types.Value{v})) {
						t.Fatalf("value %d read back as %v, appended %v", i, rows[i][0], v)
					}
				}
			})
		}
	}
}

// TestOpenSetChain: a column with no typed layout is cut at cell boundaries
// into self-contained pages, none over the page size, that together hold its
// cells in order; its head names them and no other column is capped by it.
func TestOpenSetChain(t *testing.T) {
	const pageSize = 1024
	os := NewOpenSet(2, pageSize)
	var want []types.Row
	for i := 0; ; i++ {
		r := types.Row{types.NewFloat(float64(i) * 0.5), types.NewString(fmt.Sprintf("a comment, number %d, of no two alike", i))}
		ok, err := os.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		want = append(want, r)
	}
	// The float page alone decides: 8 bytes a cell.
	if max := (pageSize - colHeaderSize - fixedHeaderSize) / 8; len(want) != max {
		t.Fatalf("set closed at %d rows, a full float page holds %d", len(want), max)
	}
	if os.ChainPages(0) != 0 || os.ChainPages(1) < 2 {
		t.Fatalf("chain pages: float %d, comment %d", os.ChainPages(0), os.ChainPages(1))
	}
	set := os.Snapshot([]int{0, 1})
	start, count, err := set.Pages[1].Chain(uint32(os.ChainPages(1)))
	if err != nil || start != 0 || int(count) != os.ChainPages(1) || set.Pages[1].NumValues() != len(want) {
		t.Fatalf("head: chain [%d, +%d) err %v, %d rows", start, count, err, set.Pages[1].NumValues())
	}
	cells := 0
	for k, p := range set.Chunks(1) {
		if len(p.Buf) != pageSize || p.ChainHead() || p.NumValues() == 0 {
			t.Fatalf("chain page %d: %d bytes, %d values", k, len(p.Buf), p.NumValues())
		}
		cells += p.NumValues()
	}
	if cells != len(want) {
		t.Fatalf("chain holds %d cells of %d rows", cells, len(want))
	}
	if _, err := set.Pages[1].Values(); err == nil {
		t.Fatal("a chain head read as a page of cells")
	}
	rows, err := set.Rows()
	if err != nil || !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows read back differ (err %v)", err)
	}
}

// TestOpenSetRefusalLeavesSetUnchanged: a row that is not admitted — the set
// is full, or a value is too large for any page — changes nothing: what the
// set writes, its min-max and its row count are those of before, and it goes
// on admitting rows.
func TestOpenSetRefusalLeavesSetUnchanged(t *testing.T) {
	const pageSize = 512
	row := func(i int) types.Row {
		return types.Row{
			types.NewInt(int64(i % 40)),                 // dict
			types.NewFloat(float64(i)),                  // fixed: fills first
			types.NewString(fmt.Sprintf("tag-%d", i%3)), // dict
			types.NewString(fmt.Sprintf("free text %d", i*7919)),
		}
	}
	// state seals every page afresh: Snapshot would hand back its cache,
	// which a refused row must not touch either, but which hides a writer
	// whose output it changed.
	state := func(os *OpenSet) (pages [][]byte, mm []types.Value) {
		for ci := range os.cols {
			for k := 0; k < os.ChainPages(ci); k++ {
				pages = append(pages, make([]byte, pageSize))
				os.WriteChunk(ci, k, pages[len(pages)-1])
			}
			pages = append(pages, make([]byte, pageSize))
			os.WritePage(ci, pages[len(pages)-1], 0)
			lo, hi := os.MinMax(ci)
			mm = append(mm, lo, hi)
		}
		return pages, mm
	}
	os := NewOpenSet(4, pageSize)
	for i := 0; i < 20; i++ {
		if ok, err := os.Append(row(i)); !ok || err != nil {
			t.Fatalf("row %d: %v %v", i, ok, err)
		}
	}
	pages, mm := state(os)
	huge := types.NewString(strings.Repeat("x", pageSize))
	for ci := range row(0) {
		r := row(20)
		r[ci] = huge
		ok, err := os.Append(r)
		var big *CellTooLargeError
		if ok || !errors.As(err, &big) || big.Col != ci || big.Size != types.EncodedSize(huge) || big.Max != pageSize-colHeaderSize {
			t.Fatalf("oversize value in column %d: ok %v, err %v", ci, ok, err)
		}
		if p2, mm2 := state(os); os.NumRows() != 20 || !reflect.DeepEqual(p2, pages) || !reflect.DeepEqual(mm2, mm) {
			t.Fatalf("an oversize value in column %d changed the set", ci)
		}
	}
	n := 20
	for ; ; n++ {
		ok, err := os.Append(row(n))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	pages, mm = state(os)
	if ok, _ := os.Append(row(n)); ok || os.NumRows() != n {
		t.Fatalf("a full set admitted row %d", n)
	}
	if p2, mm2 := state(os); !reflect.DeepEqual(p2, pages) || !reflect.DeepEqual(mm2, mm) {
		t.Fatal("a refused row changed the set")
	}
	if lo, hi := os.MinMax(1); lo.F != 0 || hi.F != float64(n-1) {
		t.Fatalf("float min-max [%v, %v], want [0, %d]", lo, hi, n-1)
	}
	if lo, hi := os.MinMax(2); lo.S != "tag-0" || hi.S != "tag-2" {
		t.Fatalf("string min-max [%v, %v]", lo, hi)
	}
	os.Reset()
	if ok, err := os.Append(row(n)); !ok || err != nil || os.NumRows() != 1 {
		t.Fatalf("after Reset: %v %v", ok, err)
	}
}

// TestOpenSetRefusedEntryIsForgotten: a dictionary entry that only a refused
// row filed is gone from the index, so the row that brings the value again
// files it afresh and the column's page is the one Seal writes.
func TestOpenSetRefusedEntryIsForgotten(t *testing.T) {
	const pageSize = 512
	os := NewOpenSet(2, pageSize)
	var vals []types.Value
	add := func(tag string, i int) {
		v := types.NewString(tag)
		if ok, err := os.Append(types.Row{v, types.NewInt(int64(i))}); !ok || err != nil {
			t.Fatalf("row %d: %v %v", i, ok, err)
		}
		vals = append(vals, v)
	}
	for i := 0; i < 6; i++ {
		add(fmt.Sprintf("tag-%d", i%3), i)
	}
	huge := types.NewString(strings.Repeat("x", pageSize))
	if ok, err := os.Append(types.Row{types.NewString("tag-new"), huge}); ok || err == nil {
		t.Fatalf("oversize row: %v %v", ok, err)
	}
	add("tag-new", 6)
	add("tag-0", 7)
	add("tag-new", 8)
	ref, _, _ := legacySeal(vals)
	got := os.Snapshot([]int{0}).Pages[0]
	end := colHeaderSize + ref.payloadLen()
	if ref.Buf[colOffFlags]>>1 != layoutDict || !bytes.Equal(got.Buf[:end], ref.Buf[:end]) {
		t.Fatalf("written page (flags %#x) differs from the sealed dictionary page (flags %#x)", got.Buf[colOffFlags], ref.Buf[colOffFlags])
	}
}

// TestOpenSetSnapshotCache: Snapshots between two changes share one sealing
// of each read column, chain included; an admitted row or a Reset makes the
// next Snapshot seal fresh pages and leaves the ones handed out as they were,
// and a refused row changes nothing.
func TestOpenSetSnapshotCache(t *testing.T) {
	const pageSize = 1024
	row := func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("a comment, number %d, of no two alike", i))}
	}
	os := NewOpenSet(2, pageSize)
	for i := 0; os.ChainPages(1) < 2; i++ {
		if ok, err := os.Append(row(i)); !ok || err != nil {
			t.Fatalf("row %d: %v %v", i, ok, err)
		}
	}
	// bufs lists the first byte of every page of a snapshot: its identity.
	bufs := func(set PageSet) (out []*byte) {
		for ci, p := range set.Pages {
			if p.Buf != nil {
				out = append(out, &p.Buf[0])
			}
			for _, chunk := range set.Chains[ci] {
				out = append(out, &chunk.Buf[0])
			}
		}
		return out
	}
	first := os.Snapshot([]int{0, 1})
	firstRows, err := first.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if again := os.Snapshot([]int{1}); !slices.Equal(bufs(again), bufs(first)[1:]) {
		t.Fatal("a second Snapshot with no change in between sealed column 1 again")
	}
	if ok, err := os.Append(types.Row{types.NewInt(0), types.NewString(strings.Repeat("x", pageSize))}); ok || err == nil {
		t.Fatalf("an oversize value was admitted: %v %v", ok, err)
	}
	if again := os.Snapshot([]int{0, 1}); !slices.Equal(bufs(again), bufs(first)) {
		t.Fatal("a refused row made Snapshot seal again")
	}
	for _, change := range []func(){
		func() { os.Append(row(os.NumRows())) },
		os.Reset,
	} {
		change()
		next := os.Snapshot([]int{0, 1})
		for _, b := range bufs(next) {
			for _, old := range bufs(first) {
				if b == old {
					t.Fatal("a Snapshot after a change reuses a page handed out before it")
				}
			}
		}
		if rows, err := first.Rows(); err != nil || !reflect.DeepEqual(rows, firstRows) {
			t.Fatalf("a change rewrote a snapshot handed out before it (err %v)", err)
		}
		if rows, err := next.Rows(); err != nil || len(rows) != os.NumRows() {
			t.Fatalf("the fresh snapshot holds %d rows of %d (err %v)", len(rows), os.NumRows(), err)
		}
	}
}
