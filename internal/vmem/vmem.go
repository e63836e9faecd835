// Package vmem models per-process paged virtual memory for the simulated
// cluster. Buffers carry both a virtual address (what VIA descriptors and
// the NIC translation machinery operate on) and real bytes (so data
// integrity can be checked end to end).
//
// Storage is lazy, like demand-zero pages: a buffer gets its bytes on the
// first data access (Bytes, Slice, Resolve, Fill, FillPattern,
// CheckPattern) and reads as zeros until written. Everything that works on
// addresses and lengths alone (Len, Addr, AddrAt, Owner, Check, Locate,
// Backed) never allocates, so registering and deregistering a buffer whose
// data nothing moves costs no host memory however large it is.
//
// Locate and Backed let a data mover skip storage nobody has written: it
// finds the owning buffer without backing it and, while Backed is false,
// treats the range as zeros.
package vmem

import (
	"errors"
	"fmt"
	"sort"
)

// PageSize is the simulated page size, matching the i386 Linux hosts of the
// paper's testbed.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

var (
	// ErrBadAddress reports an access outside any allocated buffer.
	ErrBadAddress = errors.New("vmem: address not mapped")
	// ErrOutOfRange reports an access that starts inside but runs past a
	// buffer.
	ErrOutOfRange = errors.New("vmem: access out of range")
)

// Addr is a simulated virtual address.
type Addr uint64

// Page returns the virtual page number containing a.
func (a Addr) Page() uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of a within its page.
func (a Addr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// NumPages reports how many pages the byte range [addr, addr+length) spans.
func NumPages(addr Addr, length int) int {
	if length <= 0 {
		return 0
	}
	first := addr.Page()
	last := (Addr(uint64(addr) + uint64(length) - 1)).Page()
	return int(last - first + 1)
}

// Buffer is a contiguous allocation in a simulated address space. Its
// storage is materialized on first data access; see back.
type Buffer struct {
	addr Addr
	n    int
	data []byte // nil until back runs
	as   *AddressSpace
}

// back returns the buffer's storage, allocating it zeroed on first use.
// Every data accessor goes through here.
func (b *Buffer) back() []byte {
	if b.data == nil {
		b.data = make([]byte, b.n)
	}
	return b.data
}

// Addr returns the buffer's starting virtual address.
func (b *Buffer) Addr() Addr { return b.addr }

// Len returns the buffer length in bytes. It does not back the buffer.
func (b *Buffer) Len() int { return b.n }

// Backed reports whether the buffer has storage yet. An unbacked buffer
// reads as zeros.
func (b *Buffer) Backed() bool { return b.data != nil }

// Bytes returns the storage, backing the buffer if nothing has yet.
// Mutations are visible to simulated DMA, exactly as host memory would be.
func (b *Buffer) Bytes() []byte { return b.back() }

// Slice returns the sub-range [off, off+n) of the buffer's storage.
func (b *Buffer) Slice(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > b.n {
		return nil, fmt.Errorf("%w: slice [%d,%d) of %d-byte buffer", ErrOutOfRange, off, off+n, b.n)
	}
	return b.back()[off : off+n], nil
}

// AddrAt returns the virtual address of byte off within the buffer.
func (b *Buffer) AddrAt(off int) Addr { return Addr(uint64(b.addr) + uint64(off)) }

// Fill sets every byte of the buffer to v.
func (b *Buffer) Fill(v byte) {
	data := b.back()
	for i := range data {
		data[i] = v
	}
}

// FillPattern writes a position-dependent pattern seeded by seed, for
// end-to-end integrity checks.
func (b *Buffer) FillPattern(seed byte) {
	data := b.back()
	for i := range data {
		data[i] = seed + byte(i*31)
	}
}

// CheckPattern verifies FillPattern(seed) over the first n bytes.
func (b *Buffer) CheckPattern(seed byte, n int) error {
	if n > b.n {
		return ErrOutOfRange
	}
	data := b.back()
	for i := 0; i < n; i++ {
		if data[i] != seed+byte(i*31) {
			return fmt.Errorf("vmem: pattern mismatch at offset %d: got %#x want %#x", i, data[i], seed+byte(i*31))
		}
	}
	return nil
}

// AddressSpace is the virtual memory of one simulated process. Allocations
// are page-aligned and never overlap; address zero is never handed out so
// it can serve as a null value.
type AddressSpace struct {
	next    Addr
	buffers []*Buffer // sorted by addr
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: PageSize} // skip page 0
}

// Alloc allocates a page-aligned buffer of n bytes.
func (as *AddressSpace) Alloc(n int) *Buffer {
	if n <= 0 {
		panic(fmt.Sprintf("vmem: Alloc(%d)", n))
	}
	b := &Buffer{addr: as.next, n: n, as: as}
	as.buffers = append(as.buffers, b)
	pages := (n + PageSize - 1) / PageSize
	// Leave a guard page between allocations so off-by-one accesses fault
	// instead of silently landing in a neighbor.
	as.next = as.next.Advance((pages + 1) * PageSize)
	return b
}

// Advance returns a shifted by n bytes.
func (a Addr) Advance(n int) Addr { return Addr(uint64(a) + uint64(n)) }

// Resolve maps the virtual range [addr, addr+n) to backing storage,
// backing the owning buffer if nothing has yet. It fails if the range is
// unmapped or spans an allocation boundary, the simulated equivalent of a
// fault during DMA.
func (as *AddressSpace) Resolve(addr Addr, n int) ([]byte, error) {
	b, off, err := as.Locate(addr, n)
	if err != nil {
		return nil, err
	}
	return b.back()[off : off+n], nil
}

// Check validates [addr, addr+n) exactly as Resolve does, returning the
// same errors, without backing the owning buffer.
func (as *AddressSpace) Check(addr Addr, n int) error {
	_, _, err := as.Locate(addr, n)
	return err
}

// Locate finds the buffer holding the whole range [addr, addr+n) and the
// offset of addr within it, without backing the buffer. It fails exactly
// as Resolve and Check do.
func (as *AddressSpace) Locate(addr Addr, n int) (*Buffer, int, error) {
	b := as.find(addr)
	if b == nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadAddress, addr)
	}
	off := int(uint64(addr) - uint64(b.addr))
	if n < 0 || off+n > b.n {
		return nil, 0, fmt.Errorf("%w: [%v,+%d) beyond buffer of %d bytes", ErrOutOfRange, addr, n, b.n)
	}
	return b, off, nil
}

// Owner returns the buffer containing addr, or nil.
func (as *AddressSpace) Owner(addr Addr) *Buffer { return as.find(addr) }

func (as *AddressSpace) find(addr Addr) *Buffer {
	// Binary search: Alloc only ever advances next, so buffers is sorted
	// by address, and the registration figures grow an address space to
	// one buffer per size per repetition.
	i := sort.Search(len(as.buffers), func(i int) bool { return as.buffers[i].addr > addr }) - 1
	if i < 0 {
		return nil
	}
	if b := as.buffers[i]; uint64(addr) < uint64(b.addr)+uint64(b.n) {
		return b
	}
	return nil
}

// Buffers returns every live allocation, in address order.
func (as *AddressSpace) Buffers() []*Buffer { return as.buffers }
