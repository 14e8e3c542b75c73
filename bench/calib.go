package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// calibrator measures how fast the host is right now. The reference host is
// a small VM on a shared machine whose memory system slows by 20-45 % for
// minutes at a time (README.md, "Repeatability"): every statement, load and
// CPU second stretches with it, and ten runs of the same code then spread
// wider than any usable bound. So each run interleaves a fixed kernel with
// its work — dependent loads through 32 MiB, random updates of a 16 MiB hash
// table, a sort, and first touches of 32 MiB of fresh pages: what a query
// engine under a garbage collector makes a memory system do — and reports
// its times at the reference speed:
//
//	reported = measured × calibNominalMS / (median kernel time of the run)
//
// The kernel is the benchmark's own code on memory outside the Go heap: it
// shares nothing with the program, allocates nothing, and leaves the garbage
// collector's pacing alone.
type calibrator struct {
	mem   []byte
	next  []uint32  // one cycle through every entry
	table []uint64  // key, count pairs, open addressing
	nums  []float64 // sort input
	at    uint32    // where the chase stands
	rng   uint64
	sink  uint64
	ms    []float64 // one kernel time per sample
}

const (
	chaseEntries = 8 << 20 // × 4 B = 32 MiB
	chaseSteps   = 150_000
	tableSlots   = 1 << 20 // × 16 B = 16 MiB
	tableKeys    = 1 << 19
	tableUpdates = 500_000
	sortLen      = 200_000
	faultBytes   = 32 << 20

	// calibNominalMS is the kernel's time on the reference host in its fast
	// state; it only fixes the scale, so that reported times read like
	// measured ones there.
	calibNominalMS = 75.0
)

func (c *calibrator) rand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

func newCalibrator() (*calibrator, error) {
	size := chaseEntries*4 + tableSlots*16 + sortLen*8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibrator{mem: mem, rng: 88172645463325252}
	p := unsafe.Pointer(&mem[0])
	c.next = unsafe.Slice((*uint32)(p), chaseEntries)
	c.table = unsafe.Slice((*uint64)(unsafe.Add(p, chaseEntries*4)), tableSlots*2)
	c.nums = unsafe.Slice((*float64)(unsafe.Add(p, chaseEntries*4+tableSlots*16)), sortLen)
	// Sattolo's shuffle of the identity leaves a single cycle.
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := len(c.next) - 1; i > 0; i-- {
		j := c.rand() % uint64(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c, nil
}

func (c *calibrator) close() {
	if c != nil && c.mem != nil {
		_ = syscall.Munmap(c.mem)
		c.mem = nil
	}
}

// sample runs the kernel once. A nil calibrator (traced runs, whose numbers
// are not normalised) does nothing.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	start := time.Now()
	at := c.at
	for i := 0; i < chaseSteps; i++ {
		at = c.next[at]
	}
	c.at = at

	clear(c.table)
	for i := 0; i < tableUpdates; i++ {
		key := c.rand()%tableKeys + 1
		slot := (key * 0x9E3779B97F4A7C15) >> 44 // top 20 bits
		for c.table[2*slot] != 0 && c.table[2*slot] != key {
			slot = (slot + 1) & (tableSlots - 1)
		}
		c.table[2*slot] = key
		c.table[2*slot+1]++
	}

	for i := range c.nums {
		c.nums[i] = float64(c.rand() >> 11)
	}
	sort.Float64s(c.nums)

	// Page faults: in a VM a fresh page costs a fault in the guest and often
	// one in the host, and the Go runtime takes them whenever its heap
	// regrows into memory it had returned.
	if fresh, err := syscall.Mmap(-1, 0, faultBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE); err == nil {
		for i := 0; i < faultBytes; i += 4096 {
			fresh[i] = 1
		}
		_ = syscall.Munmap(fresh)
	}
	c.sink += uint64(at) + c.table[1] + uint64(c.nums[0])
	c.ms = append(c.ms, msSince(start))
}

// totalMS is the time spent in the kernel so far.
func (c *calibrator) totalMS() float64 {
	if c == nil {
		return 0
	}
	return sum(c.ms)
}

// factor turns a time measured in this run into one at the reference speed.
func (c *calibrator) factor() float64 {
	if c == nil || len(c.ms) == 0 {
		return 1
	}
	return calibNominalMS / median(c.ms)
}
