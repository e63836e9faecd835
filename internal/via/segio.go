package via

import (
	"fmt"

	"vibe/internal/vmem"
)

// segRun is one located data segment: its virtual address and the n bytes
// at offset off of the buffer that holds it. Locating never backs the
// buffer; the DMA helpers below consult Backed when they move data, so a
// write the application makes after posting is carried, and a buffer
// nobody writes is never given storage.
type segRun struct {
	addr vmem.Addr
	buf  *vmem.Buffer
	off  int
	n    int
}

// locateSegs maps a descriptor's data segments to the buffers holding
// them, reusing the storage of dst (whose contents it discards): each
// engine keeps one run slice and locates every message into it. It fails
// if any segment is unmapped, which the simulated NIC treats as a fault;
// the runs returned with an error are empty.
func locateSegs(dst []segRun, as *vmem.AddressSpace, segs []DataSegment) ([]segRun, error) {
	runs := dst[:0]
	for i, s := range segs {
		buf, off, err := as.Locate(s.Addr, s.Length)
		if err != nil {
			return runs[:0], fmt.Errorf("via: segment %d: %w", i, err)
		}
		runs = append(runs, segRun{addr: s.Addr, buf: buf, off: off, n: s.Length})
	}
	return runs, nil
}

// totalLen sums the run lengths.
func totalLen(runs []segRun) int {
	n := 0
	for _, r := range runs {
		n += r.n
	}
	return n
}

// unbacked reports whether every byte of [off, off+n) of the concatenated
// runs lies in a buffer with no storage, so the range reads as zeros and
// the NIC can send it without a payload snapshot.
func unbacked(runs []segRun, off, n int) bool {
	all := true
	eachPiece(runs, off, n, func(r *segRun, _, _, _ int) {
		all = all && !r.buf.Backed()
	})
	return all
}

// gather copies n = len(dst) bytes starting at logical offset off (across
// the concatenated runs) into dst. It models the NIC's gathering DMA read.
// Pieces in unbacked buffers read as zeros; dst is cleared there, because
// pooled payload buffers are dirty.
func gather(runs []segRun, off int, dst []byte) {
	eachPiece(runs, off, len(dst), func(r *segRun, runOff, take, rangeOff int) {
		out := dst[rangeOff : rangeOff+take]
		if !r.buf.Backed() {
			clear(out)
			return
		}
		copy(out, r.buf.Bytes()[r.off+runOff:])
	})
}

// scatter writes the n bytes of src into the concatenated runs starting
// at logical offset off. It models the NIC's scattering DMA write. A nil
// src is n zero bytes: backed destinations are cleared and unbacked ones
// stay unbacked, since they already read as zeros.
func scatter(runs []segRun, off, n int, src []byte) {
	eachPiece(runs, off, n, func(r *segRun, runOff, take, rangeOff int) {
		if src == nil {
			if r.buf.Backed() {
				clear(r.buf.Bytes()[r.off+runOff : r.off+runOff+take])
			}
			return
		}
		copy(r.buf.Bytes()[r.off+runOff:r.off+runOff+take], src[rangeOff:])
	})
}

// eachPage calls fn with each virtual page number touched by the byte
// range [off, off+n) of the concatenated runs, in access order, skipping a
// page equal to the one just visited (where one run ends and the next
// begins on the same page). This is what the NIC must translate to move
// that range.
func eachPage(runs []segRun, off, n int, fn func(page uint64)) {
	var last uint64
	visited := false
	eachPiece(runs, off, n, func(r *segRun, runOff, take, _ int) {
		first := r.addr.Advance(runOff).Page()
		end := r.addr.Advance(runOff + take - 1).Page()
		for p := first; p <= end; p++ {
			if visited && p == last {
				continue
			}
			fn(p)
			last, visited = p, true
		}
	})
}

// eachPiece walks the byte range [off, off+n) of the concatenated runs and
// calls fn for each contiguous piece: its run, its offset within that run,
// its length, and its offset relative to the start of the range.
func eachPiece(runs []segRun, off, n int, fn func(r *segRun, runOff, take, rangeOff int)) {
	if n == 0 {
		return
	}
	rangeOff := 0
	for i := range runs {
		if n <= 0 {
			return
		}
		r := &runs[i]
		if off >= r.n {
			off -= r.n
			continue
		}
		take := r.n - off
		if take > n {
			take = n
		}
		fn(r, off, take, rangeOff)
		rangeOff += take
		n -= take
		off = 0
	}
	if n > 0 {
		panic(fmt.Sprintf("via: range overruns segments by %d bytes", n))
	}
}
