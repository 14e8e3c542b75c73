package srv

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// lineResult is one readLine call's outcome.
type lineResult struct {
	line    string
	tooLong bool
	eof     bool
}

// readAll calls readLine until it reports an error, collecting every result.
func readAll(t *testing.T, in string, max, size int) []lineResult {
	t.Helper()
	r := bufio.NewReaderSize(strings.NewReader(in), size)
	var out []lineResult
	for i := 0; i <= len(in)+1; i++ {
		line, tooLong, err := readLine(r, max)
		if err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("readLine(%q, max %d): %v", in, max, err)
		}
		if err != nil && line == "" && !tooLong {
			return out
		}
		out = append(out, lineResult{line, tooLong, err != nil})
		if err != nil {
			return out
		}
	}
	t.Fatalf("readLine(%q) did not reach EOF", in)
	return nil
}

// TestReadLineCountsOnlyTheStatement: the budget covers the statement's
// bytes, never its "\n" or "\r\n" terminator, so a line is accepted or
// rejected the same whether it is terminated or ends the stream.
func TestReadLineCountsOnlyTheStatement(t *testing.T) {
	long := strings.Repeat("x", 40)
	for _, tc := range []struct {
		in   string
		max  int
		size int
		want []lineResult
	}{
		{"abcd\n", 4, 16, []lineResult{{line: "abcd"}}},
		{"abcd", 4, 16, []lineResult{{line: "abcd", eof: false}}},
		{"abc\r\n", 3, 16, []lineResult{{line: "abc"}}},
		{"abcde\n", 4, 16, []lineResult{{tooLong: true}}},
		{"abcde", 4, 16, []lineResult{{tooLong: true, eof: true}}},
		{"ab\r\ncd\n", 2, 16, []lineResult{{line: "ab"}, {line: "cd"}}},
		// Lines longer than the reader's buffer, at and past the budget.
		{strings.Repeat("y", 16) + "\r\nok\n", 16, 16, []lineResult{{line: strings.Repeat("y", 16)}, {line: "ok"}}},
		{strings.Repeat("y", 17) + "\nok\n", 16, 16, []lineResult{{tooLong: true}, {line: "ok"}}},
		{long + "\r\nok\n", 4, 16, []lineResult{{tooLong: true}, {line: "ok"}}},
	} {
		got := readAll(t, tc.in, tc.max, tc.size)
		if len(got) != len(tc.want) {
			t.Errorf("readLine(%q, max %d) = %+v, want %+v", tc.in, tc.max, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("readLine(%q, max %d) line %d = %+v, want %+v", tc.in, tc.max, i, got[i], tc.want[i])
			}
		}
	}
}

// FuzzReadLine feeds readLine any byte stream under any budget of at least
// one byte and any reader buffer of at least 16 bytes. Every terminated
// line whose statement fits comes back without its terminator, every longer
// one is reported too long, and the next line is read in sync; an
// unterminated last line is judged the same way.
func FuzzReadLine(f *testing.F) {
	f.Add([]byte("abcd\nabc\r\nabcde\n"), uint16(4), uint8(0))
	f.Add([]byte(strings.Repeat("z", 70)+"\r\nSELECT 1\r\n\n\rx"), uint16(20), uint8(3))
	f.Add([]byte("a\r\r\n\r\n"), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, m uint16, s uint8) {
		max := 1 + int(m)%200
		size := 16 + int(s)
		r := bufio.NewReaderSize(bytes.NewReader(data), size)
		segs := bytes.Split(data, []byte("\n"))
		for i, seg := range segs {
			last := i == len(segs)-1
			if last && len(seg) == 0 {
				break
			}
			want := bytes.TrimSuffix(seg, []byte("\r"))
			line, tooLong, err := readLine(r, max)
			switch {
			case len(want) > max:
				if !tooLong || line != "" {
					t.Fatalf("line %d (%d statement bytes, max %d): got (%q, tooLong %v), want too long", i, len(want), max, line, tooLong)
				}
			case tooLong || line != string(want):
				t.Fatalf("line %d (max %d): got (%q, tooLong %v), want %q", i, max, line, tooLong, want)
			}
			if err != nil && !(last && errors.Is(err, io.EOF)) {
				t.Fatalf("line %d: unexpected error %v", i, err)
			}
		}
		if line, tooLong, err := readLine(r, max); line != "" || tooLong || !errors.Is(err, io.EOF) {
			t.Fatalf("after the last line: got (%q, %v, %v), want EOF", line, tooLong, err)
		}
	})
}
