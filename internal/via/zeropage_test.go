package via

import (
	"fmt"
	"runtime"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

var procModels = []struct {
	name string
	pm   ProcModel
}{{"actor", ModelActor}, {"goroutine", ModelGoroutine}}

// bigMTU is cLAN with a 64 KiB wire MTU, so a 64 KiB message is one
// fragment and the per-fragment packet bookkeeping of a 1 MiB transfer
// stays far below the budget TestZeroPageTransferDoesNotBack allows.
func bigMTU() *provider.Model {
	m := provider.CLAN().Clone()
	m.WireMTU = 64 << 10
	return m
}

// A transfer between buffers nobody writes moves only zeros, so the NIC
// neither backs the source, the destination, nor snapshots a payload: a
// 1 MiB transfer allocates a few KiB of packet bookkeeping and leaves
// both buffers without storage.
func TestZeroPageTransferDoesNotBack(t *testing.T) {
	const (
		total = 1 << 20
		chunk = 64 << 10
	)
	for _, c := range []struct {
		name  string
		op    Op
		attrs ViAttributes
	}{
		{"send-unreliable", OpSend, ViAttributes{}},
		{"send-reliable-reception", OpSend, ViAttributes{Reliability: ReliableReception}},
		{"rdma-write", OpRdmaWrite, ViAttributes{EnableRdmaWrite: true, Reliability: ReliableReception}},
		{"rdma-read", OpRdmaRead, ViAttributes{EnableRdmaRead: true, Reliability: ReliableDelivery}},
	} {
		for _, pm := range procModels {
			t.Run(c.name+"/"+pm.name, func(t *testing.T) {
				var (
					local, remote *vmem.Buffer
					remoteH       MemHandle
					ready, done   bool
					allocated     uint64
				)
				env := newPairProc(t, pm.pm, bigMTU(), c.attrs,
					func(ctx *Ctx, vi *Vi, nic *Nic) {
						local = ctx.Malloc(total)
						h, err := nic.RegisterMem(ctx, local)
						if err != nil {
							t.Error(err)
							return
						}
						for !ready {
							ctx.Sleep(10 * sim.Microsecond)
						}
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						for off := 0; off < total; off += chunk {
							d := &Descriptor{Op: c.op, Segs: []DataSegment{{Addr: local.AddrAt(off), Handle: h, Length: chunk}}}
							if c.op != OpSend {
								d.Remote = &AddressSegment{Addr: remote.AddrAt(off), Handle: remoteH}
							}
							if err := vi.PostSend(ctx, d); err != nil {
								t.Error(err)
								return
							}
							if got, err := vi.SendWaitPoll(ctx); err != nil || got.Status != StatusSuccess {
								t.Errorf("chunk %d: %v %v", off/chunk, err, got)
								return
							}
						}
						for c.op == OpSend && !done {
							ctx.Sleep(10 * sim.Microsecond)
						}
						runtime.ReadMemStats(&after)
						allocated = after.TotalAlloc - before.TotalAlloc
						done = true
					},
					func(ctx *Ctx, vi *Vi, nic *Nic) {
						remote = ctx.Malloc(total)
						h, err := nic.RegisterMem(ctx, remote)
						if err != nil {
							t.Error(err)
							return
						}
						remoteH = h
						if c.op == OpSend {
							for off := 0; off < total; off += chunk {
								d := &Descriptor{Segs: []DataSegment{{Addr: remote.AddrAt(off), Handle: h, Length: chunk}}}
								if err := vi.PostRecv(ctx, d); err != nil {
									t.Error(err)
									return
								}
							}
							ready = true
							for off := 0; off < total; off += chunk {
								if got, err := vi.RecvWaitPoll(ctx); err != nil || got.Status != StatusSuccess || got.Length != chunk {
									t.Errorf("recv %d: %v %v", off/chunk, err, got)
									return
								}
							}
							done = true
							return
						}
						ready = true
						for !done {
							ctx.Sleep(10 * sim.Microsecond)
						}
					})
				env.run()
				if allocated >= 64<<10 {
					t.Errorf("1 MiB transfer allocated %d bytes, want < 64 KiB", allocated)
				}
				if local.Backed() || remote.Backed() {
					t.Errorf("backed after transfer: local %v, remote %v", local.Backed(), remote.Backed())
				}
			})
		}
	}
}

// One fragment that gathers from a patterned segment and an unbacked one
// carries the pattern followed by zeros, even though its payload comes
// from a pooled buffer an earlier message left dirty.
func TestFragmentSpansPatternAndUnbacked(t *testing.T) {
	const half = 100
	for _, pm := range procModels {
		t.Run(pm.name, func(t *testing.T) {
			env := newPairProc(t, pm.pm, provider.CLAN(), ViAttributes{},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					dirty := ctx.Malloc(2 * half)
					dirty.Fill(0xaa)
					pat := ctx.Malloc(half)
					pat.FillPattern(5)
					zero := ctx.Malloc(half)
					hd, _ := nic.RegisterMem(ctx, dirty)
					hp, _ := nic.RegisterMem(ctx, pat)
					hz, _ := nic.RegisterMem(ctx, zero)
					ctx.Sleep(100 * sim.Microsecond) // receives posted
					for _, d := range []*Descriptor{
						SimpleSend(dirty, hd, 2*half),
						{Op: OpSend, Segs: []DataSegment{
							{Addr: pat.Addr(), Handle: hp, Length: half},
							{Addr: zero.Addr(), Handle: hz, Length: half},
						}},
					} {
						if err := vi.PostSend(ctx, d); err != nil {
							t.Error(err)
							return
						}
						if got, err := vi.SendWaitPoll(ctx); err != nil || got.Status != StatusSuccess {
							t.Errorf("send: %v %v", err, got)
							return
						}
						ctx.Sleep(100 * sim.Microsecond) // payload recycled into the pool
					}
					if zero.Backed() {
						t.Error("gather backed the unbacked segment")
					}
				},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					first, second := ctx.Malloc(2*half), ctx.Malloc(2*half)
					h1, _ := nic.RegisterMem(ctx, first)
					h2, _ := nic.RegisterMem(ctx, second)
					vi.PostRecv(ctx, SimpleRecv(first, h1, 2*half))
					vi.PostRecv(ctx, SimpleRecv(second, h2, 2*half))
					for i := 0; i < 2; i++ {
						if got, err := vi.RecvWaitPoll(ctx); err != nil || got.Length != 2*half {
							t.Errorf("recv %d: %v %v", i, err, got)
							return
						}
					}
					if err := second.CheckPattern(5, half); err != nil {
						t.Error(err)
					}
					for i, v := range second.Bytes()[half:] {
						if v != 0 {
							t.Errorf("byte %d = %#x, want 0", half+i, v)
							return
						}
					}
				})
			env.run()
		})
	}
}

// A message from an unbacked buffer is zeros: it must clear a receive
// buffer the application dirtied, on every fragment, and leave the source
// unbacked.
func TestZeroMessageClearsDirtyReceiveBuffer(t *testing.T) {
	const n = 3*4096 + 100 // four fragments at the cLAN MTU
	for _, pm := range procModels {
		t.Run(pm.name, func(t *testing.T) {
			env := newPairProc(t, pm.pm, provider.CLAN(), ViAttributes{},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					src := ctx.Malloc(n)
					h, _ := nic.RegisterMem(ctx, src)
					ctx.Sleep(100 * sim.Microsecond) // receive posted
					if err := vi.PostSend(ctx, SimpleSend(src, h, n)); err != nil {
						t.Error(err)
						return
					}
					if got, err := vi.SendWaitPoll(ctx); err != nil || got.Status != StatusSuccess {
						t.Errorf("send: %v %v", err, got)
					}
					if src.Backed() {
						t.Error("sending backed the source")
					}
				},
				func(ctx *Ctx, vi *Vi, nic *Nic) {
					dst := ctx.Malloc(n)
					dst.Fill(0xff)
					h, _ := nic.RegisterMem(ctx, dst)
					vi.PostRecv(ctx, SimpleRecv(dst, h, n))
					if got, err := vi.RecvWaitPoll(ctx); err != nil || got.Length != n {
						t.Errorf("recv: %v %v", err, got)
						return
					}
					for i, v := range dst.Bytes() {
						if v != 0 {
							t.Errorf("byte %d = %#x, want 0", i, v)
							return
						}
					}
				})
			env.run()
		})
	}
}

// The NIC reads the send buffer when it DMAs each fragment, not when the
// descriptor is posted or picked up: bytes the application writes into a
// buffer that was unbacked at post time are delivered if they land before
// the fragment holding them is DMAed. Written right after the post, the
// whole message carries them; written once the first fragment has left,
// the rest of the message does.
func TestWriteAfterPostIsDelivered(t *testing.T) {
	const (
		mtu = 4096 // cLAN
		n   = 2*mtu + 7
	)
	for _, pm := range procModels {
		for _, afterFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/after-first-fragment=%v", pm.name, afterFirst), func(t *testing.T) {
				env := newPairProc(t, pm.pm, provider.CLAN(), ViAttributes{},
					func(ctx *Ctx, vi *Vi, nic *Nic) {
						src := ctx.Malloc(n)
						h, _ := nic.RegisterMem(ctx, src)
						ctx.Sleep(100 * sim.Microsecond) // receive posted
						if err := vi.PostSend(ctx, SimpleSend(src, h, n)); err != nil {
							t.Error(err)
							return
						}
						for afterFirst && nic.DMABytesOut < mtu {
							ctx.Sleep(10 * sim.Nanosecond)
						}
						src.FillPattern(9)
						if got, err := vi.SendWaitPoll(ctx); err != nil || got.Status != StatusSuccess {
							t.Errorf("send: %v %v", err, got)
						}
					},
					func(ctx *Ctx, vi *Vi, nic *Nic) {
						dst := ctx.Malloc(n)
						h, _ := nic.RegisterMem(ctx, dst)
						vi.PostRecv(ctx, SimpleRecv(dst, h, n))
						if got, err := vi.RecvWaitPoll(ctx); err != nil || got.Length != n {
							t.Errorf("recv: %v %v", err, got)
							return
						}
						for i, v := range dst.Bytes() {
							want := byte(9 + i*31)
							if afterFirst && i < mtu {
								want = 0
							}
							if v != want {
								t.Errorf("byte %d = %#x, want %#x", i, v, want)
								return
							}
						}
					})
				env.run()
			})
		}
	}
}

// runsOver lays out segments of the given lengths in one address space,
// one buffer each, and returns their runs. Segments whose pattern seed is
// nonzero are backed with FillPattern(seed); the rest stay unbacked.
// offsets shifts each segment inside its buffer.
func runsOver(as *vmem.AddressSpace, lens []int, seeds []byte, offsets []int) []segRun {
	var runs []segRun
	for i, n := range lens {
		b := as.Alloc(offsets[i] + n)
		if seeds[i] != 0 {
			b.FillPattern(seeds[i])
		}
		runs = append(runs, segRun{addr: b.AddrAt(offsets[i]), buf: b, off: offsets[i], n: n})
	}
	return runs
}

// wantAt returns the byte a gather of runs sees at logical offset i.
func wantAt(runs []segRun, i int) byte {
	for _, r := range runs {
		if i < r.n {
			if !r.buf.Backed() {
				return 0
			}
			return r.buf.Bytes()[r.off+i]
		}
		i -= r.n
	}
	panic("offset past runs")
}

func TestSegmentDMAHelpers(t *testing.T) {
	for _, c := range []struct {
		name     string
		lens     []int
		seeds    []byte
		offsets  []int
		off, n   int
		unbacked bool
	}{
		{"one backed run", []int{100}, []byte{3}, []int{0}, 10, 50, false},
		{"one unbacked run", []int{100}, []byte{0}, []int{0}, 10, 50, true},
		{"backed then unbacked", []int{60, 60}, []byte{3, 0}, []int{0, 0}, 30, 60, false},
		{"range inside unbacked tail", []int{60, 60}, []byte{3, 0}, []int{0, 0}, 70, 40, true},
		{"unbacked, backed, unbacked", []int{50, 50, 50}, []byte{0, 7, 0}, []int{0, 0, 0}, 0, 150, false},
		{"offset runs", []int{5000, 3000}, []byte{0, 4}, []int{123, 4000}, 4000, 3500, false},
		{"empty range", []int{10}, []byte{3}, []int{0}, 4, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			runs := runsOver(vmem.NewAddressSpace(), c.lens, c.seeds, c.offsets)
			if got := unbacked(runs, c.off, c.n); got != c.unbacked {
				t.Errorf("unbacked = %v, want %v", got, c.unbacked)
			}
			dst := make([]byte, c.n)
			for i := range dst {
				dst[i] = 0xee // a dirty pooled buffer
			}
			gather(runs, c.off, dst)
			for i, v := range dst {
				if w := wantAt(runs, c.off+i); v != w {
					t.Fatalf("gather byte %d = %#x, want %#x", i, v, w)
				}
			}

			// A nil payload clears backed destinations and leaves the
			// unbacked ones unbacked.
			out := runsOver(vmem.NewAddressSpace(), c.lens, c.seeds, c.offsets)
			scatter(out, c.off, c.n, nil)
			for i, r := range out {
				if r.buf.Backed() != (c.seeds[i] != 0) {
					t.Errorf("run %d backed = %v after nil scatter", i, r.buf.Backed())
				}
			}
			for i := 0; i < c.n; i++ {
				if v := wantAt(out, c.off+i); v != 0 {
					t.Fatalf("nil scatter left byte %d = %#x", i, v)
				}
			}

			// A payload backs every destination it lands in.
			src := make([]byte, c.n)
			for i := range src {
				src[i] = byte(i + 1)
			}
			out = runsOver(vmem.NewAddressSpace(), c.lens, c.seeds, c.offsets)
			scatter(out, c.off, c.n, src)
			for i, v := range src {
				if w := wantAt(out, c.off+i); w != v {
					t.Fatalf("scatter byte %d = %#x, want %#x", i, w, v)
				}
			}
		})
	}
}

func TestEachPage(t *testing.T) {
	as := vmem.NewAddressSpace()
	a := as.Alloc(3 * vmem.PageSize)
	b := as.Alloc(vmem.PageSize)
	pg := func(buf *vmem.Buffer, off int) uint64 { return buf.AddrAt(off).Page() }
	for _, c := range []struct {
		name   string
		runs   []segRun
		off, n int
		want   []uint64
	}{
		{"within one page", []segRun{{addr: a.Addr(), buf: a, n: a.Len()}}, 10, 100, []uint64{pg(a, 0)}},
		{"crosses pages", []segRun{{addr: a.Addr(), buf: a, n: a.Len()}}, vmem.PageSize - 1, vmem.PageSize + 2, []uint64{pg(a, 0), pg(a, vmem.PageSize), pg(a, 2*vmem.PageSize)}},
		{"two runs sharing a page count it once", []segRun{
			{addr: a.Addr(), buf: a, n: 100},
			{addr: a.AddrAt(200), buf: a, off: 200, n: 100},
		}, 0, 200, []uint64{pg(a, 0)}},
		{"runs in two buffers", []segRun{
			{addr: a.AddrAt(2 * vmem.PageSize), buf: a, off: 2 * vmem.PageSize, n: 50},
			{addr: b.Addr(), buf: b, n: 50},
		}, 25, 50, []uint64{pg(a, 2*vmem.PageSize), pg(b, 0)}},
		{"revisiting an earlier page counts again", []segRun{
			{addr: a.Addr(), buf: a, n: 10},
			{addr: b.Addr(), buf: b, n: 10},
			{addr: a.AddrAt(20), buf: a, off: 20, n: 10},
		}, 0, 30, []uint64{pg(a, 0), pg(b, 0), pg(a, 0)}},
		{"empty", []segRun{{addr: a.Addr(), buf: a, n: 10}}, 0, 0, nil},
	} {
		var got []uint64
		eachPage(c.runs, c.off, c.n, func(p uint64) { got = append(got, p) })
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: pages %v, want %v", c.name, got, c.want)
		}
	}
	if a.Backed() || b.Backed() {
		t.Error("the page walk backed a buffer")
	}
}
