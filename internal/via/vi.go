package via

import (
	"fmt"

	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// Vi is a Virtual Interface: one communication endpoint with a send queue
// and a receive queue, mirroring the VipVi handle.
type Vi struct {
	nic   *Nic
	id    int
	attrs ViAttributes
	state ViState

	sendQ *workQueue
	recvQ *workQueue

	conn *connState

	// recvNotify, when set, consumes completed receives asynchronously
	// (see SetRecvNotify).
	recvNotify func(*Ctx, *Descriptor)

	// connReply wakes a client blocked in ConnectRequest.
	connReply    *sim.Signal
	connAccepted bool
	connRejected bool
}

// ID returns the VI's provider-local id.
func (v *Vi) ID() int { return v.id }

// State returns the VI's connection state.
func (v *Vi) State() ViState { return v.state }

// Attributes returns the VI's creation attributes.
func (v *Vi) Attributes() ViAttributes { return v.attrs }

// Nic returns the owning NIC.
func (v *Vi) Nic() *Nic { return v.nic }

// Destroy releases the VI, mirroring VipDestroyVi. A connected VI must be
// disconnected first.
func (v *Vi) Destroy(ctx *Ctx) error {
	if v.state == ViDestroyed {
		return ErrDestroyed
	}
	if v.state == ViConnected {
		return ErrInvalidState
	}
	ctx.use(v.nic.model.ViDestroy)
	v.flushQueues(StatusFlushed)
	v.state = ViDestroyed
	delete(v.nic.vis, v.id)
	v.nic.openVIs--
	return nil
}

// workQueue is a VI send or receive queue: posted descriptors complete in
// FIFO order and are dequeued by the Done/Wait family.
type workQueue struct {
	host   *Host
	vi     *Vi
	isRecv bool
	cq     *CQ

	// pending holds posted descriptors not yet dequeued, oldest first;
	// it rewinds whenever the application drains it. consumed counts the
	// descriptors at its front already claimed by incoming messages
	// (receive queues only): the engine's cursor.
	pending  sim.FIFO[*Descriptor]
	consumed int

	sig *sim.Signal // broadcast on every completion
}

func newWorkQueue(h *Host, vi *Vi, isRecv bool, cq *CQ) *workQueue {
	return &workQueue{host: h, vi: vi, isRecv: isRecv, cq: cq, sig: sim.NewSignal(h.sys.Eng)}
}

func (wq *workQueue) post(d *Descriptor) {
	d.done = false
	d.Status = StatusPending
	d.Length = 0
	d.GotImmediate = false
	d.vi = wq.vi
	d.span = nil
	wq.pending.Push(d)
}

// consume hands the engine the next unconsumed receive descriptor.
func (wq *workQueue) consume() *Descriptor {
	items := wq.pending.Items()
	if wq.consumed >= len(items) {
		return nil
	}
	d := items[wq.consumed]
	wq.consumed++
	return d
}

// complete marks d done and publishes the completion (signal, CQ entry,
// notify handler).
func (wq *workQueue) complete(d *Descriptor, st Status, length int) {
	d.Status = st
	d.Length = length
	d.done = true
	wq.closeSpan(d, st)
	wq.vi.nic.countStatus(st)
	if wq.isRecv {
		wq.vi.nic.RecvsCompleted++
	}
	if lv := int(wq.vi.attrs.Reliability); lv >= 0 && lv < len(wq.vi.nic.completions) {
		wq.vi.nic.completions[lv]++
	}
	if wq.isRecv && wq.vi.recvNotify != nil {
		wq.dispatchNotify()
		return
	}
	if wq.cq != nil {
		wq.cq.push(Completion{Vi: wq.vi, IsRecv: wq.isRecv})
	}
	wq.sig.Broadcast()
}

// dispatchNotify pops the completed head descriptor and runs the VI's
// receive handler in a fresh process, modeling an asynchronous upcall.
func (wq *workQueue) dispatchNotify() {
	d, ok := wq.takeHead()
	if !ok {
		// FIFO head not complete: the handler will be dispatched when it
		// is (completions are in order for receives, so this is
		// defensive).
		return
	}
	vi := wq.vi
	h := wq.host
	h.sys.Eng.Spawn(procName(h, "notify"), func(p *sim.Proc) {
		ctx := &Ctx{P: p, Host: h}
		ctx.use(vi.nic.model.NotifyDispatch)
		vi.recvNotify(ctx, d)
	})
}

// headDone reports whether the head descriptor has completed.
func (wq *workQueue) headDone() bool {
	return wq.pending.Len() > 0 && wq.pending.Items()[0].done
}

// takeHead dequeues the head descriptor if it has completed. From then
// on the descriptor belongs to the application again, which may repost
// it.
func (wq *workQueue) takeHead() (*Descriptor, bool) {
	if !wq.headDone() {
		return nil, false
	}
	if wq.consumed > 0 {
		wq.consumed--
	}
	return wq.pending.Pop(), true
}

// Depth reports posted-but-not-dequeued descriptors (for tests).
func (wq *workQueue) depth() int { return wq.pending.Len() }

// flush completes every pending descriptor with the given status.
func (wq *workQueue) flush(st Status) {
	for _, d := range wq.pending.Items() {
		if !d.done {
			d.Status = st
			d.done = true
			wq.closeSpan(d, st)
			wq.vi.nic.countStatus(st)
		}
	}
	wq.sig.Broadcast()
}

// closeSpan closes the message-lifecycle span riding on d, if any. The
// residual tail since the last attributed phase is the ACK round trip for
// reliable sends (the status write waits on the peer's acknowledgment)
// and the completion write otherwise. Every descriptor completion funnels
// through complete or flush, so spans cannot leak; the span's own closed
// flag makes a second close harmless (and counted).
func (wq *workQueue) closeSpan(d *Descriptor, st Status) {
	sp := d.span
	if sp == nil {
		return
	}
	d.span = nil
	t := wq.host.sys.spans
	if t == nil {
		return
	}
	residual := phaseCompletion
	if !wq.isRecv && wq.vi.attrs.Reliability.Reliable() {
		residual = phaseAck
	}
	t.close(sp, residual, st == StatusSuccess, wq.host.sys.Eng.Now())
}

func (v *Vi) flushQueues(st Status) {
	v.sendQ.flush(st)
	v.recvQ.flush(st)
}

// --- Posting ---

// PostSend posts a send, RDMA-write, or RDMA-read descriptor to the VI's
// send queue, mirroring VipPostSend. The VI must be connected. Validation
// errors are returned immediately (the VIPL protection checks); transport
// errors surface in the descriptor status.
func (v *Vi) PostSend(ctx *Ctx, d *Descriptor) error {
	m := v.nic.model
	switch v.state {
	case ViConnected:
	case ViIdle:
		return ErrNotConnected
	default:
		// Disconnected, Error, Destroyed: the VI has left the connected
		// lifecycle, so posts are invalid-state errors per the VIA spec
		// (an idle VI is merely not connected yet).
		return ErrInvalidState
	}
	if err := v.validate(d); err != nil {
		return err
	}
	switch d.Op {
	case OpRdmaWrite:
		if !v.attrs.EnableRdmaWrite {
			return ErrNotSupported
		}
		if d.Remote == nil {
			return fmt.Errorf("%w: RDMA write without address segment", ErrProtection)
		}
	case OpRdmaRead:
		if !v.attrs.EnableRdmaRead {
			return ErrNotSupported
		}
		if d.Remote == nil {
			return fmt.Errorf("%w: RDMA read without address segment", ErrProtection)
		}
		if !v.attrs.Reliability.Reliable() {
			// The VIA spec only defines RDMA Read on reliable connections.
			return ErrNotSupported
		}
	}

	var sp *msgSpan
	if t := v.nic.host.sys.spans; t != nil {
		sp = t.open(spanPathFor(d.Op), int(v.nic.host.id), d.TotalLength(), ctx.Now())
	}

	cost := m.PostSendCost
	if extra := len(d.Segs) - 1; extra > 0 {
		cost += sim.Duration(extra) * m.PerSegmentCost
	}
	if d.Op != OpRdmaRead {
		if m.HostCopies {
			cost += sim.Duration(d.TotalLength()) * m.CopyPerByte
		}
		if m.TranslationAt == provider.TranslateAtHost {
			cost += sim.Duration(v.segPages(d)) * m.HostXlatePerPage
		}
	}
	cost += m.DoorbellCost
	ctx.use(cost)
	sp.add(phasePost, cost, ctx.Now())

	switch d.Op {
	case OpRdmaWrite:
		v.nic.RdmaWrites++
	case OpRdmaRead:
		v.nic.RdmaReads++
	default:
		v.nic.PostedSends++
	}
	v.sendQ.post(d)
	d.span = sp
	v.nic.ring(v, d)
	return nil
}

// PostRecv posts a receive descriptor, mirroring VipPostRecv. Receives may
// be pre-posted before the VI is connected.
func (v *Vi) PostRecv(ctx *Ctx, d *Descriptor) error {
	m := v.nic.model
	if v.state != ViIdle && v.state != ViConnected {
		return ErrInvalidState
	}
	if d.Op != OpSend {
		return fmt.Errorf("%w: receive descriptors carry no operation", ErrProtection)
	}
	if err := v.validate(d); err != nil {
		return err
	}
	cost := m.PostRecvCost
	if extra := len(d.Segs) - 1; extra > 0 {
		cost += sim.Duration(extra) * m.PerSegmentCost
	}
	ctx.use(cost)
	v.nic.PostedRecvs++
	v.recvQ.post(d)
	return nil
}

func (v *Vi) validate(d *Descriptor) error {
	m := v.nic.model
	if len(d.Segs) > m.MaxSegments {
		return ErrTooManySegments
	}
	if d.TotalLength() > v.attrs.MaxTransferSize {
		return ErrLength
	}
	for _, s := range d.Segs {
		if err := v.nic.checkSeg(s); err != nil {
			return err
		}
	}
	return nil
}

func (v *Vi) segPages(d *Descriptor) int {
	pages := 0
	for _, s := range d.Segs {
		pages += vmem.NumPages(s.Addr, s.Length)
	}
	return pages
}

// --- Completion ---

// SendDone polls the send queue once, mirroring VipSendDone: if the head
// descriptor has completed it is dequeued and returned.
func (v *Vi) SendDone(ctx *Ctx) (*Descriptor, bool) {
	ctx.use(v.nic.model.CheckCost)
	return v.sendQ.takeHead()
}

// RecvDone polls the receive queue once, mirroring VipRecvDone.
func (v *Vi) RecvDone(ctx *Ctx) (*Descriptor, bool) {
	ctx.use(v.nic.model.CheckCost)
	return v.recvQ.takeHead()
}

// SendWaitPoll spins until the head send descriptor completes, burning
// CPU — the simulated equivalent of looping on VipSendDone.
func (v *Vi) SendWaitPoll(ctx *Ctx) (*Descriptor, error) {
	return v.waitPoll(ctx, v.sendQ)
}

// RecvWaitPoll spins until the head receive descriptor completes.
func (v *Vi) RecvWaitPoll(ctx *Ctx) (*Descriptor, error) {
	return v.waitPoll(ctx, v.recvQ)
}

// SendWait blocks (CPU idle) until the head send descriptor completes or
// the timeout elapses, mirroring VipSendWait.
func (v *Vi) SendWait(ctx *Ctx, timeout sim.Duration) (*Descriptor, error) {
	return v.waitBlock(ctx, v.sendQ, timeout)
}

// RecvWait blocks until the head receive descriptor completes, mirroring
// VipRecvWait.
func (v *Vi) RecvWait(ctx *Ctx, timeout sim.Duration) (*Descriptor, error) {
	return v.waitBlock(ctx, v.recvQ, timeout)
}

func (v *Vi) waitPoll(ctx *Ctx, wq *workQueue) (*Descriptor, error) {
	// The check cost is paid at detection (see CQ.WaitPoll): it is the
	// reaction time of the polling loop once the completion lands.
	for {
		if wq.headDone() {
			ctx.use(v.nic.model.CheckCost)
			d, _ := wq.takeHead()
			return d, nil
		}
		if wq.pending.Len() == 0 {
			return nil, ErrInvalidState
		}
		ctx.Host.CPU.SpinWait(ctx.P, wq.sig)
	}
}

func (v *Vi) waitBlock(ctx *Ctx, wq *workQueue, timeout sim.Duration) (*Descriptor, error) {
	m := v.nic.model
	deadline := ctx.Now().Add(timeout)
	for {
		if wq.headDone() {
			ctx.use(m.CheckCost)
			d, _ := wq.takeHead()
			return d, nil
		}
		if wq.pending.Len() == 0 {
			return nil, ErrInvalidState
		}
		remain := deadline.Sub(ctx.Now())
		if remain <= 0 {
			return nil, ErrTimeout
		}
		if !ctx.Host.CPU.BlockWaitTimeout(ctx.P, wq.sig, remain, m.BlockWakeCost) {
			return nil, ErrTimeout
		}
	}
}

// SetRecvNotify installs handler as an asynchronous receive-completion
// upcall: each completed receive is dequeued and handed to the handler in
// a fresh process, after the provider's dispatch cost. Pass nil to return
// to synchronous completion. This models the interrupt-driven handler
// path the paper's asynchronous-message micro-benchmark exercises.
func (v *Vi) SetRecvNotify(handler func(*Ctx, *Descriptor)) {
	v.recvNotify = handler
}

// SendQueueDepth and RecvQueueDepth report posted-but-not-dequeued
// descriptor counts (for tests).
func (v *Vi) SendQueueDepth() int { return v.sendQ.depth() }
func (v *Vi) RecvQueueDepth() int { return v.recvQ.depth() }

// doorbell is a send-work notification from host to NIC.
type doorbell struct {
	vi   *Vi
	desc *Descriptor
}
