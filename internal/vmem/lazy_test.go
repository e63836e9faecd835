package vmem

import (
	"errors"
	"testing"
)

func TestMetadataLeavesBufferUnbacked(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(3*PageSize + 5)
	_ = b.Addr()
	_ = b.AddrAt(b.Len() - 1)
	if err := as.Check(b.AddrAt(10), 100); err != nil {
		t.Fatal(err)
	}
	if as.Owner(b.AddrAt(7)) != b {
		t.Fatal("Owner missed the buffer")
	}
	if got, off, err := as.Locate(b.AddrAt(10), 100); err != nil || got != b || off != 10 {
		t.Fatalf("Locate = %p, %d, %v; want %p, 10, nil", got, off, err, b)
	}
	_ = as.Buffers()
	if b.Len() != 3*PageSize+5 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Backed() || b.data != nil {
		t.Fatal("metadata access backed the buffer")
	}
}

func TestDataAccessorsBackBuffer(t *testing.T) {
	const n = 100
	for _, c := range []struct {
		name string
		use  func(as *AddressSpace, b *Buffer)
	}{
		{"Bytes", func(_ *AddressSpace, b *Buffer) { b.Bytes() }},
		{"Slice", func(_ *AddressSpace, b *Buffer) { b.Slice(10, 20) }},
		{"Resolve", func(as *AddressSpace, b *Buffer) { as.Resolve(b.AddrAt(1), 2) }},
		{"Fill", func(_ *AddressSpace, b *Buffer) { b.Fill(1) }},
		{"FillPattern", func(_ *AddressSpace, b *Buffer) { b.FillPattern(1) }},
		{"CheckPattern", func(_ *AddressSpace, b *Buffer) { b.CheckPattern(1, 4) }},
	} {
		as := NewAddressSpace()
		b := as.Alloc(n)
		if b.Backed() {
			t.Fatalf("%s: fresh buffer is backed", c.name)
		}
		c.use(as, b)
		if !b.Backed() || len(b.data) != n {
			t.Errorf("%s: Backed() = %v, backing is %d bytes, want %d", c.name, b.Backed(), len(b.data), n)
		}
	}
}

func TestUnbackedBufferReadsZero(t *testing.T) {
	as := NewAddressSpace()
	b := as.Alloc(PageSize + 1)
	got, err := as.Resolve(b.AddrAt(PageSize-2), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
	for i, v := range b.Bytes() {
		if v != 0 {
			t.Fatalf("Bytes()[%d] = %#x, want 0", i, v)
		}
	}
	// The storage Resolve handed out is the storage Bytes sees.
	got[0] = 9
	if b.Bytes()[PageSize-2] != 9 {
		t.Fatal("Resolve and Bytes returned different storage")
	}
}

// Check, Locate and Resolve share one lookup: every range gets the same
// verdict and error text from all three. Check and Locate run on an
// address space Resolve never touches, which must stay unbacked.
func TestCheckMatchesResolve(t *testing.T) {
	as := NewAddressSpace()
	a := as.Alloc(100)
	b := as.Alloc(2 * PageSize)
	guard := a.AddrAt(PageSize) // the page between a and b
	resolved := NewAddressSpace()
	resolved.Alloc(100)
	resolved.Alloc(2 * PageSize)
	for _, c := range []struct {
		name string
		addr Addr
		n    int
		want error
	}{
		{"inside", b.AddrAt(PageSize), 10, nil},
		{"whole", b.Addr(), b.Len(), nil},
		{"empty", a.Addr(), 0, nil},
		{"unmapped page zero", Addr(8), 1, ErrBadAddress},
		{"unmapped past last", b.AddrAt(4 * PageSize), 1, ErrBadAddress},
		{"a's tail", a.AddrAt(100), 1, ErrBadAddress},
		{"guard page", guard, 4, ErrBadAddress},
		{"straddles into guard", a.AddrAt(90), 20, ErrOutOfRange},
		{"straddles a into b", a.Addr(), int(b.Addr()-a.Addr()) + 1, ErrOutOfRange},
		{"past end", b.AddrAt(2*PageSize - 1), 2, ErrOutOfRange},
		{"negative length", b.Addr(), -1, ErrOutOfRange},
	} {
		cerr := as.Check(c.addr, c.n)
		buf, off, lerr := as.Locate(c.addr, c.n)
		_, rerr := resolved.Resolve(c.addr, c.n)
		if !errors.Is(cerr, c.want) || (c.want == nil) != (cerr == nil) {
			t.Errorf("%s: Check err = %v, want %v", c.name, cerr, c.want)
		}
		for _, e := range []struct {
			name string
			err  error
		}{{"Locate", lerr}, {"Resolve", rerr}} {
			if (cerr == nil) != (e.err == nil) || (cerr != nil && cerr.Error() != e.err.Error()) {
				t.Errorf("%s: Check err %v, %s err %v", c.name, cerr, e.name, e.err)
			}
		}
		if lerr == nil && (buf != as.Owner(c.addr) || buf.AddrAt(off) != c.addr) {
			t.Errorf("%s: Locate = %v+%d, want the owner of %v", c.name, buf.Addr(), off, c.addr)
		}
	}
	if a.Backed() || b.Backed() {
		t.Error("Check or Locate backed a buffer")
	}
}
