package nicsim

// Buffer pool size classes: powers of two from 16 bytes to 64 KiB, which
// spans every wire MTU the provider models use. Larger requests fall
// through to the allocator.
const (
	minBufClass = 4  // 16 B
	maxBufClass = 16 // 64 KiB

	// maxPerClass bounds each class's free list so a burst does not pin
	// memory for the rest of the run.
	maxPerClass = 256
)

// BufPool is an engine-local free list for wire payload buffers. The NIC
// models allocate one payload snapshot per fragment; on the bandwidth
// sweeps that is tens of thousands of short-lived slices per run. Recycling
// them through a pool keeps the per-fragment hot path allocation-free.
//
// A BufPool is NOT safe for concurrent use: it is meant to be owned by one
// simulation engine, whose processes already run strictly one at a time.
// Buffers returned by Get are dirty — callers must fully overwrite the
// requested length, which the NIC gather path always does: it copies the
// pieces of a fragment that lie in backed buffers and clears the pieces
// that lie in unbacked ones. A fragment lying wholly in unbacked buffers
// is sent without a payload and never reaches Get.
type BufPool struct {
	free [maxBufClass + 1][][]byte

	// Gets counts Get calls served (excluding zero-length requests); Hits
	// counts how many were satisfied from the free list.
	Gets, Hits uint64
}

// NewBufPool returns an empty pool.
func NewBufPool() *BufPool { return &BufPool{} }

// classFor returns the smallest class whose buffers hold n bytes.
// Precondition: n <= 1<<maxBufClass.
func classFor(n int) int {
	c := minBufClass
	for 1<<c < n {
		c++
	}
	return c
}

// Get returns a buffer of length n, reusing a pooled one when available.
// Zero-length requests return nil.
func (p *BufPool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	p.Gets++
	if n > 1<<maxBufClass {
		return make([]byte, n)
	}
	c := classFor(n)
	l := p.free[c]
	if len(l) == 0 {
		return make([]byte, n, 1<<c)
	}
	buf := l[len(l)-1]
	l[len(l)-1] = nil
	p.free[c] = l[:len(l)-1]
	p.Hits++
	return buf[:n]
}

// Put returns b to the pool. Only buffers whose capacity is exactly a pool
// class size are kept (i.e. buffers that came from Get); anything else is
// left to the garbage collector. The caller must not retain b afterwards.
func (p *BufPool) Put(b []byte) {
	c := cap(b)
	if c < 1<<minBufClass || c > 1<<maxBufClass || c&(c-1) != 0 {
		return
	}
	cl := classFor(c)
	if len(p.free[cl]) >= maxPerClass {
		return
	}
	p.free[cl] = append(p.free[cl], b[:c])
}
