package vmem

import "testing"

// allocSizes spans the registration figures' range, one page to 32 MiB.
var allocSizes = []int{1, PageSize, 28 << 10, 1 << 20, 32 << 20}

// BenchmarkAlloc allocates across allocSizes, starting a fresh address
// space every 1024 buffers so the buffer table stays bounded.
func BenchmarkAlloc(b *testing.B) {
	b.ReportAllocs()
	var as *AddressSpace
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			as = NewAddressSpace()
		}
		as.Alloc(allocSizes[i%len(allocSizes)])
	}
}

// BenchmarkResolve resolves 64 bytes in each of 1024 backed buffers in
// turn, the size of address space the registration figures build up.
func BenchmarkResolve(b *testing.B) {
	const bufs = 1024
	as := NewAddressSpace()
	addrs := make([]Addr, bufs)
	for i := range addrs {
		buf := as.Alloc(allocSizes[1+i%2])
		buf.Bytes()
		addrs[i] = buf.AddrAt(buf.Len() / 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Resolve(addrs[i%bufs], 64); err != nil {
			b.Fatal(err)
		}
	}
}
