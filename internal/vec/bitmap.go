package vec

// Bitmap is a growable bit set over the same word layout Col.Nulls uses
// (see SetBit/GetBit). The typed page decoders take one so they can mark
// NULL slab positions while appending; Col code keeps using the raw
// []uint64 field directly.
type Bitmap struct {
	Words []uint64
}

// Set sets bit i, growing the word slice as needed.
func (b *Bitmap) Set(i int) { b.Words = SetBit(b.Words, i) }
