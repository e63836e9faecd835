package core

import (
	"fmt"

	"vibe/internal/cpu"
	"vibe/internal/fabric"
	"vibe/internal/sim"
	"vibe/internal/via"
	"vibe/internal/vmem"
)

// XferResult is one data-transfer measurement in the paper's units.
type XferResult struct {
	Size      int
	RTTus     float64 // request-reply round trip
	LatencyUs float64 // one-way latency (RTT/2 for symmetric ping-pong)
	MBps      float64 // bandwidth runs only
	CPUUtil   float64 // sender/client CPU utilization in [0,1]
	TPS       float64 // transactions per second (client-server)
}

// regBuf is a registered buffer.
type regBuf struct {
	buf *vmem.Buffer
	h   via.MemHandle
}

// endpoint bundles one side's VIA objects and buffer pools.
type endpoint struct {
	ctx    *via.Ctx
	nic    *via.Nic
	vi     *via.Vi
	extras []*via.Vi
	cq     *via.CQ
	send   []regBuf
	recv   []regBuf
	descs  *descFree
	o      XferOpts
	cfg    Config
}

// descFree is an endpoint's descriptor free list. A descriptor returns to
// it once its work queue has dequeued it — the point where VIA hands it
// back to the application — and the post paths take from it before
// allocating, so a steady request/reply loop reuses the same few
// descriptors and their segment arrays. Endpoint copies (the notify
// handler's) share the list through the pointer, so no descriptor is ever
// handed out twice.
type descFree struct {
	free []*via.Descriptor
}

// get returns a cleared descriptor for op, reusing a free one's segment
// array when it can.
func (f *descFree) get(op via.Op) *via.Descriptor {
	n := len(f.free)
	if n == 0 {
		return &via.Descriptor{Op: op}
	}
	d := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	*d = via.Descriptor{Op: op, Segs: d.Segs[:0]}
	return d
}

// put returns a dequeued descriptor to the list.
func (f *descFree) put(d *via.Descriptor) { f.free = append(f.free, d) }

// rdmaXchg carries each side's receive-pool addresses to the other for
// RDMA transfers (the address exchange a real application would do over an
// initial send/receive).
type rdmaXchg struct {
	cli, srv []via.AddressSegment
}

func makePool(ctx *via.Ctx, nic *via.Nic, count, size int) ([]regBuf, error) {
	if size < 4 {
		size = 4
	}
	pool := make([]regBuf, count)
	for i := range pool {
		buf := ctx.Malloc(size)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			return nil, err
		}
		pool[i] = regBuf{buf: buf, h: h}
	}
	return pool, nil
}

// addressSegments exports a pool for RDMA targeting.
func addressSegments(pool []regBuf) []via.AddressSegment {
	segs := make([]via.AddressSegment, len(pool))
	for i, b := range pool {
		segs[i] = via.AddressSegment{Addr: b.buf.Addr(), Handle: b.h}
	}
	return segs
}

// setup creates the endpoint: CQ if requested, ActiveVIs connected VI
// pairs (traffic uses the first), and the send/receive buffer pools.
// share aliases the receive pool to the send pool, matching the paper's
// base setup where one user buffer serves as both.
func setup(ctx *via.Ctx, cfg Config, o XferOpts, sendSize, recvSize int, share, isClient bool, peer fabric.NodeID) (*endpoint, error) {
	ep := &endpoint{ctx: ctx, nic: ctx.OpenNic(), descs: &descFree{}, o: o, cfg: cfg}
	var err error
	if o.RecvViaCQ {
		if ep.cq, err = ep.nic.CreateCQ(ctx, 4096); err != nil {
			return nil, err
		}
	}
	attrs := via.ViAttributes{Reliability: o.Reliability, EnableRdmaWrite: o.RDMA}
	for k := 0; k < o.ActiveVIs; k++ {
		var recvCQ *via.CQ
		if k == 0 {
			recvCQ = ep.cq
		}
		vi, err := ep.nic.CreateVi(ctx, attrs, nil, recvCQ)
		if err != nil {
			return nil, err
		}
		disc := fmt.Sprintf("vi-%d", k)
		if isClient {
			if err := vi.ConnectRequest(ctx, peer, disc, cfg.Timeout); err != nil {
				return nil, fmt.Errorf("connect %s: %w", disc, err)
			}
		} else {
			req, err := ep.nic.ConnectWait(ctx, disc, cfg.Timeout)
			if err != nil {
				return nil, fmt.Errorf("wait %s: %w", disc, err)
			}
			if err := req.Accept(ctx, vi); err != nil {
				return nil, fmt.Errorf("accept %s: %w", disc, err)
			}
		}
		if k == 0 {
			ep.vi = vi
		} else {
			ep.extras = append(ep.extras, vi)
		}
	}

	poolN := o.PoolBuffers
	if share {
		size := sendSize
		if recvSize > size {
			size = recvSize
		}
		if ep.send, err = makePool(ctx, ep.nic, poolN, size); err != nil {
			return nil, err
		}
		ep.recv = ep.send
		return ep, nil
	}
	if ep.send, err = makePool(ctx, ep.nic, poolN, sendSize); err != nil {
		return nil, err
	}
	if ep.recv, err = makePool(ctx, ep.nic, poolN, recvSize); err != nil {
		return nil, err
	}
	return ep, nil
}

// appendSegments appends to segs the split of buffer b into k contiguous
// data segments covering exactly n bytes.
func appendSegments(segs []via.DataSegment, b regBuf, n, k int) []via.DataSegment {
	if n > 0 && k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	base := n / k
	off := 0
	for i := 0; i < k; i++ {
		l := base
		if i == k-1 {
			l = n - off
		}
		segs = append(segs, via.DataSegment{Addr: b.buf.AddrAt(off), Handle: b.h, Length: l})
		off += l
	}
	return segs
}

// postRecv posts a receive descriptor sized for an n-byte message into
// pool buffer b.
func (ep *endpoint) postRecv(b regBuf, n int) error {
	d := ep.descs.get(via.OpSend)
	d.Segs = appendSegments(d.Segs, b, n, ep.o.Segments)
	return ep.vi.PostRecv(ep.ctx, d)
}

// postSend posts the send (or RDMA write) of n bytes from pool buffer b.
// For RDMA, the write targets the peer's receive-pool buffer of the same
// index, carrying immediate data so the peer's posted descriptor
// completes. With no peer pool (control messages like the bandwidth ack),
// a plain send is used even in RDMA mode. The write's address segment
// points into the exchanged peer pool, which outlives every descriptor.
func (ep *endpoint) postSend(b regBuf, n, poolIdx int, peerRecv []via.AddressSegment) error {
	d := ep.descs.get(via.OpSend)
	d.Segs = appendSegments(d.Segs, b, n, ep.o.Segments)
	if ep.o.RDMA && peerRecv != nil {
		d.Op = via.OpRdmaWrite
		d.Remote = &peerRecv[poolIdx]
		d.ImmediateData = uint32(poolIdx)
		d.HasImmediate = true
	}
	return ep.vi.PostSend(ep.ctx, d)
}

// retire checks a dequeued descriptor's status and returns it to the free
// list.
func (ep *endpoint) retire(d *via.Descriptor, err error) error {
	err = checkOK(d, err)
	if d != nil {
		ep.descs.put(d)
	}
	return err
}

// waitSend completes and retires the head send descriptor per the
// configured mode.
func (ep *endpoint) waitSend() error {
	if ep.o.Mode == Blocking {
		return ep.retire(ep.vi.SendWait(ep.ctx, ep.cfg.Timeout))
	}
	return ep.retire(ep.vi.SendWaitPoll(ep.ctx))
}

// waitRecv completes and retires the head receive descriptor per the
// configured mode, going through the completion queue when configured.
func (ep *endpoint) waitRecv() error {
	if ep.o.RecvViaCQ {
		var err error
		if ep.o.Mode == Blocking {
			_, err = ep.cq.Wait(ep.ctx, ep.cfg.Timeout)
		} else {
			_, err = ep.cq.WaitPoll(ep.ctx)
		}
		if err != nil {
			return err
		}
		d, ok := ep.vi.RecvDone(ep.ctx)
		if !ok {
			return fmt.Errorf("vibe: CQ entry without completed descriptor")
		}
		return ep.retire(d, nil)
	}
	if ep.o.Mode == Blocking {
		return ep.retire(ep.vi.RecvWait(ep.ctx, ep.cfg.Timeout))
	}
	return ep.retire(ep.vi.RecvWaitPoll(ep.ctx))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// checkOK fails on transport-level descriptor errors so miscalibrated
// benchmarks surface loudly.
func checkOK(d *via.Descriptor, err error) error {
	if err != nil {
		return err
	}
	if d.Status != via.StatusSuccess {
		return fmt.Errorf("vibe: descriptor completed with %v", d.Status)
	}
	return nil
}

// roundTrip is the suite's core engine: a synchronous request/reply loop
// between two nodes, parameterized by XferOpts. Ping-pong latency,
// CQ/buffer-reuse/multi-VI/segment/RDMA/reliability variants, and the
// client-server benchmark are all instances of it.
func roundTrip(cfg Config, reqSize, replySize int, separateBufs bool, o XferOpts) (XferResult, error) {
	o = o.normalized()
	sys := via.NewSystemProc(cfg.Model, 2, cfg.Seed, cfg.ProcModel)
	defer sys.Close()
	cfg.instrument(sys)
	total := cfg.Warmup + cfg.Iters
	res := XferResult{Size: reqSize}

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}
	// The base setup uses one user buffer as both send and receive buffer
	// (§3.2.1); the buffer-reuse and RDMA experiments use distinct send
	// and receive buffers (§3.2.2).
	share := !separateBufs && !o.RDMA && !o.VaryBuffers

	var x rdmaXchg
	var cliReady, srvReady bool

	sys.Go(0, "vibe-client", func(ctx *via.Ctx) {
		ep, err := setup(ctx, cfg, o, reqSize, replySize, share, true, 1)
		if err != nil {
			fail(err)
			return
		}
		if o.RDMA {
			x.cli = addressSegments(ep.recv)
			cliReady = true
			for !srvReady {
				ctx.Sleep(10 * sim.Microsecond)
			}
		}
		var t0 sim.Time
		var meter *cpu.Meter
		for i := 0; i < total; i++ {
			if i == cfg.Warmup {
				t0 = ctx.Now()
				meter = ctx.Host.CPU.StartMeter()
			}
			bi := o.pickBuf(i)
			if err := ep.postRecv(ep.recv[bi], replySize); err != nil {
				fail(err)
				return
			}
			if err := ep.postSend(ep.send[bi], reqSize, bi, x.srv); err != nil {
				fail(err)
				return
			}
			if err := ep.waitSend(); err != nil {
				fail(fmt.Errorf("client send %d: %w", i, err))
				return
			}
			if err := ep.waitRecv(); err != nil {
				fail(fmt.Errorf("client recv %d: %w", i, err))
				return
			}
		}
		rtt := ctx.Now().Sub(t0)
		res.RTTus = rtt.Micros() / float64(cfg.Iters)
		res.LatencyUs = res.RTTus / 2
		res.CPUUtil = meter.Utilization()
		if res.RTTus > 0 {
			res.TPS = 1e6 / res.RTTus
		}
	})

	sys.Go(1, "vibe-server", func(ctx *via.Ctx) {
		ep, err := setup(ctx, cfg, o, replySize, reqSize, share, false, 0)
		if err != nil {
			fail(err)
			return
		}
		if o.RDMA {
			x.srv = addressSegments(ep.recv)
			srvReady = true
			for !cliReady {
				ctx.Sleep(10 * sim.Microsecond)
			}
		}
		if o.Notify {
			ep.serveNotify(total, reqSize, replySize, &x, fail)
			return
		}
		if err := ep.postRecv(ep.recv[o.pickBuf(0)], reqSize); err != nil {
			fail(err)
			return
		}
		for i := 0; i < total; i++ {
			if err := ep.waitRecv(); err != nil {
				fail(fmt.Errorf("server recv %d: %w", i, err))
				return
			}
			if i+1 < total {
				if err := ep.postRecv(ep.recv[o.pickBuf(i+1)], reqSize); err != nil {
					fail(err)
					return
				}
			}
			bi := o.pickBuf(i)
			if err := ep.postSend(ep.send[bi], replySize, bi, x.cli); err != nil {
				fail(err)
				return
			}
			if err := ep.waitSend(); err != nil {
				fail(fmt.Errorf("server send %d: %w", i, err))
				return
			}
		}
	})

	if err := sys.Run(); err != nil {
		return res, err
	}
	return res, runErr
}

// serveNotify is the server loop of the asynchronous-message benchmark:
// each completed receive is handled by an upcall that posts the next
// receive and sends the reply.
func (ep *endpoint) serveNotify(total, reqSize, replySize int, x *rdmaXchg, fail func(error)) {
	o := ep.o
	done := 0
	ep.vi.SetRecvNotify(func(hctx *via.Ctx, d *via.Descriptor) {
		i := done
		done++
		st := d.Status
		ep.descs.put(d) // dequeued by the notify dispatch
		if st != via.StatusSuccess {
			fail(fmt.Errorf("vibe notify: descriptor %v", st))
			return
		}
		// Handlers run with their own context; redirect the endpoint's
		// posting calls through it for this upcall. The copy shares the
		// descriptor free list.
		hep := *ep
		hep.ctx = hctx
		if i+1 < total {
			if err := hep.postRecv(ep.recv[o.pickBuf(i+1)], reqSize); err != nil {
				fail(err)
				return
			}
		}
		bi := o.pickBuf(i)
		if err := hep.postSend(ep.send[bi], replySize, bi, x.cli); err != nil {
			fail(err)
			return
		}
		if err := hep.waitSend(); err != nil {
			fail(err)
		}
	})
	if err := ep.postRecv(ep.recv[o.pickBuf(0)], reqSize); err != nil {
		fail(err)
		return
	}
	for done < total {
		ep.ctx.Sleep(20 * sim.Microsecond)
	}
}
