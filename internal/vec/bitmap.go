package vec

// Bitmap is a growable bit set over the same word layout Col.Nulls uses
// (see SetBit/GetBit). The typed page decoders take one so they can mark
// NULL slab positions while appending, and roll the marks back when a page
// turns out to need the boxed fallback; Col code keeps using the raw
// []uint64 field directly.
type Bitmap struct {
	Words []uint64
}

// Set sets bit i, growing the word slice as needed.
func (b *Bitmap) Set(i int) { b.Words = SetBit(b.Words, i) }

// Truncate clears every bit at position >= n, so a decoder that appended
// past n can roll its null marks back to a snapshot length.
func (b *Bitmap) Truncate(n int) {
	full := n >> 6
	for i := full + 1; i < len(b.Words); i++ {
		b.Words[i] = 0
	}
	if full < len(b.Words) {
		if r := uint(n & 63); r != 0 {
			b.Words[full] &= (1 << r) - 1
		} else {
			b.Words[full] = 0
		}
	}
}
