package via

import (
	"vibe/internal/fabric"
	"vibe/internal/fault"
	"vibe/internal/nicsim"
	"vibe/internal/provider"
	"vibe/internal/sim"
	"vibe/internal/vmem"
)

// Trace event names on a NIC's track: doorbells its send engine picks up
// and packets its receive engine takes in.
var (
	traceDoorbell = sim.NewTraceName("doorbell vi=% op=% len=%")
	traceRx       = sim.NewTraceName("rx kind=% from=% vi=% msg=% frag=%+%")
)

// The NIC engines are written as sim.Machine state machines: sendMachine
// consumes doorbells, recvMachine consumes fabric deliveries. Each machine
// is driven either by a goroutine process (Queue.ServeProc — the reference
// model) or directly on the event loop (Queue.Serve — zero goroutine
// handoffs); see ProcModel. The decomposition rule is mechanical: every
// p.Sleep(d) of the old process code became `return d, <state>`, with the
// code after the sleep in that state's segment, and every conditional
// sleep (fault stalls, ack emission) falls through inline — a plain
// Step call, not a scheduling point — when it would not have slept.
// Nothing else moved, so both drivers replay the old engines' event
// streams byte-identically.

// sendCompletion is a send descriptor seen as the target of its own
// completion event: an unreliable send completes when the status write
// lands, which the engine schedules as a closure-free event carrying the
// byte count (see sim.Handler).
type sendCompletion Descriptor

func (c *sendCompletion) Handle(length int) {
	d := (*Descriptor)(c)
	d.vi.nic.completeSend(d.vi, d, StatusSuccess, length)
}

// recvCompletion is the receive-side analogue: a successful receive whose
// completion waits for the host copy of its final fragment.
type recvCompletion Descriptor

func (c *recvCompletion) Handle(length int) {
	d := (*Descriptor)(c)
	if !d.done {
		d.vi.recvQ.complete(d, StatusSuccess, length)
	}
}

// rtoTimer is a VI seen as the target of its retransmission-timer event.
type rtoTimer Vi

func (t *rtoTimer) Handle(int) {
	vi := (*Vi)(t)
	vi.nic.rtoFire(vi)
}

// send injects a packet into the fabric and returns the instant it has
// finished serializing out of this adapter. Span-carrying packets are
// stamped with the departure time so the receiver can attribute wire
// time; retransmissions restamp, so the measurement covers the attempt
// that actually arrived.
func (n *Nic) send(pkt *wirePacket, dst fabric.NodeID) sim.Time {
	if pkt.span != nil {
		pkt.sentAt = n.host.sys.Eng.Now()
	}
	return n.host.sys.Net.Send(n.host.id, dst, pkt.wireSize(n.model.AckBytes), pkt)
}

// sendCtl is send for connection-management packets (fire and forget).
func (n *Nic) sendCtl(pkt *wirePacket, dst fabric.NodeID) {
	n.send(pkt, dst)
}

// stallD queries the fault plan for a NIC stall at the given site — the
// doorbell/command path or a DMA transfer — and returns how long the
// engine must stall (0 when no plan is installed or the plan is silent).
// The injector is always consulted when present, even for a zero verdict,
// since consulting it may advance plan state. Inert (one nil check) when
// no plan is installed.
func (n *Nic) stallD(site fault.Site) sim.Duration {
	inj := n.faults
	if inj == nil {
		return 0
	}
	d := inj.Stall(site, int(n.host.id), n.host.sys.Eng.Now())
	if d > 0 {
		n.FaultStallTime += d
	}
	return d
}

// xlateCost is the NIC-side translation cost for the pages touched by the
// byte range [off, off+size) of runs (see eachPage), according to the
// provider's translation design.
func (n *Nic) xlateCost(runs []segRun, off, size int) sim.Duration {
	m := n.model
	var d sim.Duration
	switch {
	case m.TranslationAt == provider.TranslateAtHost:
		// The host already translated while posting.
	case m.TablesAt == provider.TablesInNICMemory:
		eachPage(runs, off, size, func(uint64) { d += m.XlateNICTable })
	default:
		eachPage(runs, off, size, func(pg uint64) {
			if n.tlb.Lookup(pg) {
				d += m.XlateHit
			} else {
				d += m.XlateMissHostTable
			}
		})
	}
	return d
}

// --- Send engine ---

// sendMachine states: each names the code segment that runs after the
// correspondingly named sleep.
const (
	sSweepDone         = iota // after the poll sweep (or its absence)
	sDoorbellStallDone        // after an injected doorbell stall
	sFetchDone                // after doorbell processing + descriptor fetch
	sFragDone                 // after a data fragment's per-fragment cost
	sDMAStallDone             // after an injected DMA stall
	sXlateDone                // after the fragment's translation time
	sDMADone                  // after the fragment's DMA transfer
	sReadFragDone             // after an RDMA-read request's fragment cost
)

// sendMachine is the NIC's transmit processor: it picks up doorbells and
// moves descriptors onto the wire. The fields are exactly the locals the
// goroutine form of this engine kept live across sleeps.
type sendMachine struct {
	n *Nic

	db       *doorbell
	conn     *connState // captured at chain start, like the old local
	runs     []segRun
	frags    []nicsim.Fragment
	fi       int
	total    int
	msgID    uint64
	reliable bool
	lastTx   sim.Time
	sweep    sim.Duration
	xd, dd   sim.Duration
}

func (sm *sendMachine) now() sim.Time { return sm.n.host.sys.Eng.Now() }

// finish is the tail of the engine loop: recycle the doorbell, count the
// send, and report the item done so the driver pops the next one.
func (sm *sendMachine) finish() (sim.Duration, int) {
	sm.n.rung(sm.db)
	sm.n.SendsProcessed++
	sm.db = nil
	sm.conn = nil
	sm.runs = sm.runs[:0]
	return 0, sim.StepDone
}

// Begin picks up a doorbell: trace, queue-phase mark, and the optional
// firmware poll sweep over the open VIs.
func (sm *sendMachine) Begin(db *doorbell) (sim.Duration, int) {
	n := sm.n
	eng := n.host.sys.Eng
	m := n.model
	sm.db = db
	// Tracing() guard: TotalLength walks the segments, which this
	// per-send path must not pay when no tracer is installed.
	if eng.Tracing() {
		eng.Trace(sim.TraceEvent{At: eng.Now(), Comp: sim.TraceNIC, ID: int32(n.host.id), Name: traceDoorbell,
			Args: [6]int64{int64(db.vi.id), int64(db.desc.Op), int64(db.desc.TotalLength())}})
	}
	sp := db.desc.span
	sp.mark(phaseQueue, eng.Now()) // time since post spent waiting in the send queue
	sm.sweep = 0
	if m.PollSweep && n.openVIs > 1 {
		// Firmware sweeps every open VI's send structure to find
		// work — the Berkeley VIA behaviour behind the paper's
		// multiple-VI sensitivity.
		sm.sweep = sim.Duration(n.openVIs-1) * m.PollPerVI
		return sm.sweep, sSweepDone
	}
	return sm.Step(sSweepDone)
}

func (sm *sendMachine) Step(pc int) (sim.Duration, int) {
	n := sm.n
	m := n.model
	switch pc {
	case sSweepDone:
		n.BusyDoorbell += sm.sweep
		if d := n.stallD(fault.SiteDoorbell); d > 0 {
			return d, sDoorbellStallDone
		}
		return sm.Step(sDoorbellStallDone)

	case sDoorbellStallDone:
		sm.db.desc.span.mark(phaseDoorbell, sm.now()) // poll sweep + any injected stall
		return m.DoorbellProc + m.DescFetch, sFetchDone

	case sFetchDone:
		sp := sm.db.desc.span
		n.BusyDoorbell += m.DoorbellProc
		n.BusyFetch += m.DescFetch
		sp.add(phaseDoorbell, m.DoorbellProc, sm.now())
		sp.add(phaseFetch, m.DescFetch, sm.now())
		return sm.processSend()

	case sFragDone:
		f := sm.frags[sm.fi]
		sp := sm.db.desc.span
		n.BusyFrag += m.PerFragment
		sp.add(phaseFrag, m.PerFragment, sm.now())
		n.FragsSent++
		if f.Size > 0 {
			if d := n.stallD(fault.SiteDMA); d > 0 {
				return d, sDMAStallDone
			}
			return sm.Step(sDMAStallDone)
		}
		return sm.emitFrag()

	case sDMAStallDone:
		f := sm.frags[sm.fi]
		sm.db.desc.span.mark(phaseDMA, sm.now()) // injected DMA stall, if any
		sm.xd = n.xlateCost(sm.runs, f.Offset, f.Size)
		return sm.xd, sXlateDone

	case sXlateDone:
		f := sm.frags[sm.fi]
		n.BusyXlate += sm.xd
		sm.db.desc.span.add(phaseXlate, sm.xd, sm.now())
		sm.dd = sim.Duration(f.Size) * m.DMAPerByte
		return sm.dd, sDMADone

	case sDMADone:
		f := sm.frags[sm.fi]
		n.BusyDMA += sm.dd
		sm.db.desc.span.add(phaseDMA, sm.dd, sm.now())
		n.DMABytesOut += uint64(f.Size)
		return sm.emitFrag()

	case sReadFragDone:
		return sm.readRequestOut()
	}
	panic("via: sendMachine: bad state")
}

// processSend routes the fetched descriptor.
func (sm *sendMachine) processSend() (sim.Duration, int) {
	n := sm.n
	vi, d := sm.db.vi, sm.db.desc
	if vi.state != ViConnected || d.done {
		// Disconnected (or flushed) between post and pickup.
		if !d.done {
			n.completeSend(vi, d, StatusFlushed, 0)
		}
		return sm.finish()
	}
	switch d.Op {
	case OpRdmaRead:
		return sm.startReadRequest()
	default:
		return sm.startData()
	}
}

// startData begins moving a send or RDMA-write descriptor onto the wire
// as MTU fragments, translating and DMAing each. Packet headers and
// payload snapshots come from the system's free lists; the receive engine
// recycles them once a packet can no longer be referenced. A fragment
// lying wholly in unbacked buffers carries no snapshot (see emitFrag).
func (sm *sendMachine) startData() (sim.Duration, int) {
	n := sm.n
	m := n.model
	vi, d := sm.db.vi, sm.db.desc
	sm.conn = vi.conn
	var err error
	sm.runs, err = locateSegs(sm.runs, n.host.AS, d.Segs)
	if err != nil {
		n.completeSend(vi, d, StatusProtectionError, 0)
		return sm.finish()
	}
	sm.total = totalLen(sm.runs)
	sm.frags = nicsim.AppendFragments(sm.frags[:0], sm.total, m.WireMTU)
	n.nextMsgID++
	sm.msgID = n.nextMsgID
	sm.reliable = vi.attrs.Reliability.Reliable()
	sm.fi = 0
	sm.lastTx = 0
	return m.PerFragment, sFragDone
}

// emitFrag snapshots and transmits the current fragment, then advances
// the fragment loop; after the last fragment it arms the retransmission
// timer (reliable) or schedules the completion write (unreliable). A
// fragment whose bytes all lie in unbacked buffers is all zeros and goes
// out with a nil payload instead of a snapshot.
func (sm *sendMachine) emitFrag() (sim.Duration, int) {
	n := sm.n
	m := n.model
	sys := n.host.sys
	vi, d := sm.db.vi, sm.db.desc
	conn := sm.conn
	f := sm.frags[sm.fi]
	var data []byte
	if !unbacked(sm.runs, f.Offset, f.Size) {
		data = sys.bufs.Get(f.Size)
		gather(sm.runs, f.Offset, data)
	}
	pkt := sys.getPkt()
	pkt.kind = pktData
	pkt.srcVi = vi.id
	pkt.dstVi = conn.peerVi
	pkt.msgID = sm.msgID
	pkt.frag = f
	pkt.msgTotal = sm.total
	pkt.data = data
	if d.Op == OpRdmaWrite {
		pkt.kind = pktRdmaWrite
		pkt.remoteAddr = d.Remote.Addr
		pkt.remoteHandle = d.Remote.Handle
	}
	if d.HasImmediate && f.Last {
		pkt.immediate, pkt.hasImmediate = d.ImmediateData, true
	}
	pkt.span = d.span
	if sm.reliable {
		if f.Last {
			pkt.desc = d
		}
		pkt.seq, pkt.hasSeq = conn.window.Add(pkt, sm.now()), true
	}
	sm.lastTx = n.send(pkt, conn.peerNode)

	sm.fi++
	if sm.fi < len(sm.frags) {
		return m.PerFragment, sFragDone
	}
	if sm.reliable {
		n.armRTO(vi)
		return sm.finish()
	}
	// Unreliable sends complete once the final fragment has left the
	// adapter and the NIC has written the status back.
	n.host.sys.Eng.AtHandler(sm.lastTx.Add(m.CompletionWrite), (*sendCompletion)(d), sm.total)
	return sm.finish()
}

// startReadRequest begins an RDMA read: a small request packet; the data
// comes back as read-response packets handled by the receive engine.
func (sm *sendMachine) startReadRequest() (sim.Duration, int) {
	n := sm.n
	vi, d := sm.db.vi, sm.db.desc
	sm.conn = vi.conn
	var err error
	sm.runs, err = locateSegs(sm.runs, n.host.AS, d.Segs)
	if err != nil {
		n.completeSend(vi, d, StatusProtectionError, 0)
		return sm.finish()
	}
	return n.model.PerFragment, sReadFragDone
}

func (sm *sendMachine) readRequestOut() (sim.Duration, int) {
	n := sm.n
	m := n.model
	vi, d := sm.db.vi, sm.db.desc
	conn := sm.conn
	n.BusyFrag += m.PerFragment
	d.span.add(phaseFrag, m.PerFragment, sm.now())
	n.FragsSent++
	n.nextReadID++
	id := n.nextReadID
	// The send machine reuses its run slice for the next doorbell; the
	// read keeps its own copy until the responses land.
	conn.outstandingReads[id] = &readState{desc: d, runs: append([]segRun(nil), sm.runs...)}
	pkt := &wirePacket{
		kind:         pktRdmaReadReq,
		srcVi:        vi.id,
		dstVi:        conn.peerVi,
		readReq:      id,
		msgTotal:     totalLen(sm.runs),
		remoteAddr:   d.Remote.Addr,
		remoteHandle: d.Remote.Handle,
		span:         d.span,
	}
	pkt.seq, pkt.hasSeq = conn.window.Add(pkt, sm.now()), true
	n.send(pkt, conn.peerNode)
	n.armRTO(vi)
	return sm.finish()
}

// completeSend finishes a send-queue descriptor exactly once.
func (n *Nic) completeSend(vi *Vi, d *Descriptor, st Status, length int) {
	if d.done {
		return
	}
	vi.sendQ.complete(d, st, length)
}

// --- Receive engine ---

// recvMachine states. The *Done names label segments after a sleep; the
// remaining names label join points that an acknowledgment sub-chain
// (ackThen) returns to, reached with or without the ack sleep.
const (
	rDataFragDone  = iota // pktData: after the fragment receive cost
	rDataDelivered        // past the reliable-delivery ack
	rDataStallDone        // after an injected DMA stall
	rDataXlateDone        // after translation
	rDataDMADone          // after the DMA transfer
	rDataStored           // DMA block complete; maybe ack reception
	rDataFinish           // past the reliable-reception ack

	rWriteFragDone // pktRdmaWrite: after the fragment receive cost
	rWriteDelivered
	rWriteStallDone
	rWriteXlateDone
	rWriteDMADone
	rWriteStored
	rWriteFinish

	rReadReqFragDone // pktRdmaReadReq: after the fragment receive cost
	rReadReqAcked    // past the request ack
	rReqFragDone     // response loop: after a fragment's per-fragment cost
	rReqStallDone
	rReqXlateDone
	rReqDMADone

	rReadRespFragDone // pktRdmaReadResp: after the fragment receive cost
	rReadRespAcked
	rRespStallDone
	rRespXlateDone
	rRespDMADone
	rRespStored

	rAckProcDone    // pktAck: after ack processing
	rErrAckProcDone // pktErrAck: after error-ack processing

	rAckSent // sendAck sub-chain: the ack sleep ended, emit the ack
	rDone    // common tail: recycle the packet, pop the next delivery
)

// recvMachine is the NIC's receive processor: it drains the fabric inbox
// and dispatches by packet kind. Deliveries are recycled as soon as their
// fields are read; packets are recycled after handling unless they carry a
// reliability sequence (a sequenced packet is still referenced by the
// sender's retransmission window, which may resend the very same object
// and payload, so only the sender forgetting it could ever free it —
// letting the GC handle that case keeps aliasing impossible).
type recvMachine struct {
	n *Nic

	src    fabric.NodeID
	pkt    *wirePacket
	shared bool
	sp     *msgSpan

	vi   *Vi
	conn *connState

	// sendAck sub-chain: the cumulative sequence captured before the ack
	// processing sleep, and the state to continue at once it is sent.
	ackCum uint64
	ackRet int

	// data-path reassembly state.
	msgDone  bool
	rsp      *msgSpan
	tailCopy sim.Duration
	xd, dd   sim.Duration

	// RDMA target: the local range an inbound RDMA write lands in, or the
	// one a read request is served from.
	addr   vmem.Addr
	target [1]segRun

	// RDMA read service state (responder side).
	frags []nicsim.Fragment
	fi    int

	// RDMA read completion state (requester side).
	rs *readState
}

func (rm *recvMachine) now() sim.Time { return rm.n.host.sys.Eng.Now() }

// tail is the end of the engine loop body for the current packet.
func (rm *recvMachine) tail() (sim.Duration, int) {
	pkt := rm.pkt
	if !pkt.hasSeq && !rm.shared {
		rm.n.host.sys.recyclePkt(pkt)
	}
	rm.pkt = nil
	rm.sp = nil
	rm.vi = nil
	rm.conn = nil
	rm.rsp = nil
	rm.target = [1]segRun{}
	rm.rs = nil
	return 0, sim.StepDone
}

// Begin consumes one fabric delivery and routes it by packet kind.
func (rm *recvMachine) Begin(del *fabric.Delivery) (sim.Duration, int) {
	n := rm.n
	net := n.host.sys.Net
	eng := n.host.sys.Eng
	m := n.model
	src := del.Src
	pkt := del.Payload.(*wirePacket)
	// A fault-duplicated delivery aliases the same wirePacket as its
	// sibling copy, so shared packets are never recycled (the GC
	// reclaims them); aliasing a recycled header would corrupt an
	// unrelated transfer.
	corrupted, shared := del.Corrupted, del.Shared
	net.Recycle(del)
	rm.src, rm.pkt, rm.shared = src, pkt, shared
	if corrupted {
		// The frame check failed in flight: the NIC discards the
		// frame before any protocol processing, exactly like a real
		// CRC drop. Reliable senders retransmit; unreliable messages
		// lose the fragment silently.
		n.CorruptDrops++
		if !pkt.hasSeq && !shared {
			n.host.sys.recyclePkt(pkt)
		}
		rm.pkt = nil
		return 0, sim.StepDone
	}
	if eng.Tracing() {
		eng.Trace(sim.TraceEvent{At: eng.Now(), Comp: sim.TraceNIC, ID: int32(n.host.id), Name: traceRx,
			Args: [6]int64{int64(pkt.kind), int64(src), int64(pkt.dstVi), int64(pkt.msgID), int64(pkt.frag.Offset), int64(pkt.frag.Size)}})
	}
	switch pkt.kind {
	case pktData:
		rm.sp = pkt.span
		rm.sp.add(phaseWire, eng.Now().Sub(pkt.sentAt), eng.Now())
		return m.PerFragmentRecv, rDataFragDone
	case pktRdmaWrite:
		rm.sp = pkt.span
		rm.sp.add(phaseWire, eng.Now().Sub(pkt.sentAt), eng.Now())
		return m.PerFragmentRecv, rWriteFragDone
	case pktRdmaReadReq:
		rm.sp = pkt.span
		rm.sp.add(phaseWire, eng.Now().Sub(pkt.sentAt), eng.Now())
		return m.PerFragmentRecv, rReadReqFragDone
	case pktRdmaReadResp:
		rm.sp = pkt.span
		rm.sp.add(phaseWire, eng.Now().Sub(pkt.sentAt), eng.Now())
		return m.PerFragmentRecv, rReadRespFragDone
	case pktAck:
		return m.AckProcessing, rAckProcDone
	case pktErrAck:
		return m.AckProcessing, rErrAckProcDone
	case pktConnReq:
		n.connRequestArrived(src, pkt)
	case pktConnAccept:
		if vi := n.vis[pkt.dstVi]; vi != nil && vi.state == ViIdle {
			vi.conn = newConnState(n.model, src, pkt.srcVi)
			vi.state = ViConnected
			vi.connAccepted = true
			vi.connReply.Broadcast()
		}
	case pktConnReject:
		if vi := n.vis[pkt.dstVi]; vi != nil && vi.state == ViIdle {
			vi.connRejected = true
			vi.connReply.Broadcast()
		}
	case pktDisconnect:
		if vi := n.vis[pkt.dstVi]; vi != nil && vi.state == ViConnected &&
			vi.conn.peerNode == src && vi.conn.peerVi == pkt.srcVi {
			vi.teardown(ViDisconnected)
		}
	}
	return rm.tail()
}

// lookup validates that the packet targets a live connection from the
// claimed source (lookupVi) and captures vi/conn for the rest of the
// chain; false means the packet is dropped (the caller tails out).
func (rm *recvMachine) lookup() bool {
	vi := rm.n.lookupVi(rm.src, rm.pkt)
	if vi == nil {
		return false
	}
	rm.vi = vi
	rm.conn = vi.conn
	return true
}

// seqKept runs receiver-side reliability for a data-path packet:
// duplicates are re-acked (the ack sub-chain continuing at rDone) and
// dropped, gaps are dropped silently (the sender retransmits). handled
// reports that the packet's fate is already decided, with the
// continuation to return.
func (rm *recvMachine) seqKept() (d sim.Duration, next int, handled bool) {
	vi, pkt := rm.vi, rm.pkt
	if !vi.attrs.Reliability.Reliable() || !pkt.hasSeq {
		return 0, 0, false
	}
	accept, dup := vi.conn.recvSeq.Accept(pkt.seq)
	if dup {
		d, next = rm.ackThen(rDone)
		return d, next, true
	}
	if !accept {
		d, next = rm.tail()
		return d, next, true
	}
	return 0, 0, false
}

// ackThen starts the cumulative-acknowledgment sub-chain and continues at
// ret once the ack is on the wire; when there is nothing to acknowledge
// it falls straight through to ret, like the old sendAck's early return.
func (rm *recvMachine) ackThen(ret int) (sim.Duration, int) {
	cum, ok := rm.vi.conn.recvSeq.CumAck()
	if !ok {
		return rm.Step(ret)
	}
	rm.ackCum = cum
	rm.ackRet = ret
	return rm.n.model.AckProcessing, rAckSent
}

func (rm *recvMachine) Step(pc int) (sim.Duration, int) {
	n := rm.n
	m := n.model
	pkt := rm.pkt
	switch pc {
	case rAckSent:
		vi := rm.vi
		n.BusyAck += m.AckProcessing
		n.AcksSent++
		// Acks carry no sequence, so the peer's receive engine recycles
		// them; drawing them from the free list closes the loop.
		ack := n.host.sys.getPkt()
		ack.kind = pktAck
		ack.srcVi = vi.id
		ack.dstVi = vi.conn.peerVi
		ack.ackSeq = rm.ackCum
		n.send(ack, vi.conn.peerNode)
		return rm.Step(rm.ackRet)

	case rDone:
		return rm.tail()

	// --- pktData ---

	case rDataFragDone:
		n.BusyFrag += m.PerFragmentRecv
		rm.sp.add(phaseReassembly, m.PerFragmentRecv, rm.now())
		n.FragsRecv++
		if !rm.lookup() {
			return rm.tail()
		}
		if d, next, handled := rm.seqKept(); handled {
			return d, next
		}
		// Reliable Delivery acknowledges on arrival at the NIC; Reliable
		// Reception only after the data is in host memory.
		if rm.vi.attrs.Reliability == ReliableDelivery {
			return rm.ackThen(rDataDelivered)
		}
		return rm.Step(rDataDelivered)

	case rDataDelivered:
		vi, conn := rm.vi, rm.conn
		if conn.dropping {
			if pkt.msgID == conn.dropMsgID {
				if pkt.frag.Last {
					conn.dropping = false
				}
				if vi.attrs.Reliability == ReliableReception {
					return rm.ackThen(rDone)
				}
				return rm.tail()
			}
			// A new message begins; the dropped one's tail never arrived.
			conn.dropping = false
		}

		if conn.curRecv == nil {
			d := vi.recvQ.consume()
			if d == nil {
				n.DroppedNoDesc++
				if vi.attrs.Reliability.Reliable() {
					// A reliable connection with no posted descriptor is a
					// fatal application error per the VIA spec: the
					// connection breaks.
					n.failConn(vi)
					return rm.tail()
				}
				conn.dropping = true
				conn.dropMsgID = pkt.msgID
				if pkt.frag.Last {
					conn.dropping = false
				}
				return rm.tail()
			}
			runs, err := locateSegs(conn.curRecvRuns, n.host.AS, d.Segs)
			if err != nil || pkt.msgTotal > totalLen(runs) {
				conn.curRecvRuns = runs[:0] // keep the storage for the next message
				st := StatusLengthError
				if err != nil {
					st = StatusProtectionError
				}
				n.finishRecv(vi, d, st, pkt.msgTotal)
				conn.dropping = true
				conn.dropMsgID = pkt.msgID
				if pkt.frag.Last {
					conn.dropping = false
				}
				if vi.attrs.Reliability == ReliableReception {
					return rm.ackThen(rDone)
				}
				return rm.tail()
			}
			if t := n.host.sys.spans; t != nil {
				d.span = t.open(pathRecv, int(n.host.id), pkt.msgTotal, rm.now())
			}
			conn.curRecv, conn.curRecvRuns = d, runs
		}
		rm.rsp = conn.curRecv.span

		done, ok := conn.reasm.Accept(pkt.msgID, pkt.frag, pkt.msgTotal)
		rm.msgDone = done
		rm.tailCopy = 0
		if ok && pkt.frag.Size > 0 {
			if d := n.stallD(fault.SiteDMA); d > 0 {
				return d, rDataStallDone
			}
			return rm.Step(rDataStallDone)
		}
		return rm.Step(rDataStored)

	case rDataStallDone:
		rm.sp.mark(phaseDMA, rm.now())
		rm.rsp.mark(phaseReassembly, rm.now()) // inter-fragment wait + stall on the recv side
		rm.xd = n.xlateCost(rm.conn.curRecvRuns, pkt.frag.Offset, pkt.frag.Size)
		return rm.xd, rDataXlateDone

	case rDataXlateDone:
		n.BusyXlate += rm.xd
		rm.sp.add(phaseXlate, rm.xd, rm.now())
		rm.rsp.add(phaseXlate, rm.xd, rm.now())
		rm.dd = sim.Duration(pkt.frag.Size) * m.DMAPerByte
		return rm.dd, rDataDMADone

	case rDataDMADone:
		n.BusyDMA += rm.dd
		rm.sp.add(phaseDMA, rm.dd, rm.now())
		rm.rsp.add(phaseDMA, rm.dd, rm.now())
		n.DMABytesIn += uint64(pkt.frag.Size)
		scatter(rm.conn.curRecvRuns, pkt.frag.Offset, pkt.frag.Size, pkt.data)
		if m.HostCopies {
			// Kernel-emulated VIA (M-VIA) copies each arriving fragment
			// from the kernel buffer to the user buffer. The copy burns
			// host CPU concurrently with the NIC handling the next
			// fragment; only the final fragment's copy delays the
			// application-visible completion.
			rm.tailCopy = sim.Duration(pkt.frag.Size) * m.CopyPerByte
			n.host.CPU.Charge(rm.tailCopy)
		}
		return rm.Step(rDataStored)

	case rDataStored:
		if rm.vi.attrs.Reliability == ReliableReception {
			return rm.ackThen(rDataFinish)
		}
		return rm.Step(rDataFinish)

	case rDataFinish:
		vi, conn := rm.vi, rm.conn
		if rm.msgDone {
			d := conn.curRecv
			conn.curRecv, conn.curRecvRuns = nil, conn.curRecvRuns[:0]
			if pkt.hasImmediate {
				d.Immediate, d.GotImmediate = pkt.immediate, true
			}
			if rm.tailCopy > 0 {
				n.host.sys.Eng.AfterHandler(rm.tailCopy, (*recvCompletion)(d), pkt.msgTotal)
			} else {
				n.finishRecv(vi, d, StatusSuccess, pkt.msgTotal)
			}
		}
		return rm.tail()
	}
	return rm.step2(pc)
}

// step2 continues Step for the RDMA and acknowledgment states (split only
// to keep each switch readable).
func (rm *recvMachine) step2(pc int) (sim.Duration, int) {
	n := rm.n
	m := n.model
	pkt := rm.pkt
	switch pc {

	// --- pktRdmaWrite ---

	case rWriteFragDone:
		n.BusyFrag += m.PerFragmentRecv
		rm.sp.add(phaseReassembly, m.PerFragmentRecv, rm.now())
		n.FragsRecv++
		if !rm.lookup() {
			return rm.tail()
		}
		if d, next, handled := rm.seqKept(); handled {
			return d, next
		}
		// Validate the remote range before acknowledging anything: a
		// protection error must surface as an error, not a successful
		// delivery ack.
		vi, conn := rm.vi, rm.conn
		rm.addr = pkt.remoteAddr.Advance(pkt.frag.Offset)
		if !n.checkRemote(rm.addr, pkt.frag.Size, pkt.remoteHandle) {
			if vi.attrs.Reliability.Reliable() {
				n.send(&wirePacket{
					kind:   pktErrAck,
					srcVi:  vi.id,
					dstVi:  conn.peerVi,
					errSts: StatusRdmaProtError,
					errMsg: pkt.msgID,
				}, conn.peerNode)
			}
			return rm.tail()
		}
		if vi.attrs.Reliability == ReliableDelivery {
			return rm.ackThen(rWriteDelivered)
		}
		return rm.Step(rWriteDelivered)

	case rWriteDelivered:
		done, ok := rm.conn.rdmaReasm.Accept(pkt.msgID, pkt.frag, pkt.msgTotal)
		rm.msgDone = done
		if ok && pkt.frag.Size > 0 {
			buf, off, err := n.host.AS.Locate(rm.addr, pkt.frag.Size)
			if err == nil {
				rm.target[0] = segRun{addr: rm.addr, buf: buf, off: off, n: pkt.frag.Size}
				if d := n.stallD(fault.SiteDMA); d > 0 {
					return d, rWriteStallDone
				}
				return rm.Step(rWriteStallDone)
			}
		}
		return rm.Step(rWriteStored)

	case rWriteStallDone:
		rm.sp.mark(phaseDMA, rm.now())
		rm.xd = n.xlateCost(rm.target[:], 0, pkt.frag.Size)
		return rm.xd, rWriteXlateDone

	case rWriteXlateDone:
		n.BusyXlate += rm.xd
		rm.sp.add(phaseXlate, rm.xd, rm.now())
		rm.dd = sim.Duration(pkt.frag.Size) * m.DMAPerByte
		return rm.dd, rWriteDMADone

	case rWriteDMADone:
		n.BusyDMA += rm.dd
		rm.sp.add(phaseDMA, rm.dd, rm.now())
		n.DMABytesIn += uint64(pkt.frag.Size)
		scatter(rm.target[:], 0, pkt.frag.Size, pkt.data)
		return rm.Step(rWriteStored)

	case rWriteStored:
		if rm.vi.attrs.Reliability == ReliableReception {
			return rm.ackThen(rWriteFinish)
		}
		return rm.Step(rWriteFinish)

	case rWriteFinish:
		vi := rm.vi
		if rm.msgDone && pkt.hasImmediate {
			// RDMA write with immediate data consumes a receive descriptor.
			d := vi.recvQ.consume()
			if d == nil {
				n.DroppedNoDesc++
				if vi.attrs.Reliability.Reliable() {
					n.failConn(vi)
				}
				return rm.tail()
			}
			d.Immediate, d.GotImmediate = pkt.immediate, true
			n.finishRecv(vi, d, StatusSuccess, pkt.msgTotal)
		}
		return rm.tail()

	// --- pktRdmaReadReq ---

	case rReadReqFragDone:
		n.BusyFrag += m.PerFragmentRecv
		rm.sp.add(phaseReassembly, m.PerFragmentRecv, rm.now())
		if !rm.lookup() {
			return rm.tail()
		}
		if d, next, handled := rm.seqKept(); handled {
			return d, next
		}
		return rm.ackThen(rReadReqAcked) // ack the request packet itself

	case rReadReqAcked:
		vi, conn := rm.vi, rm.conn
		if !n.checkRemote(pkt.remoteAddr, pkt.msgTotal, pkt.remoteHandle) {
			n.send(&wirePacket{
				kind:    pktErrAck,
				srcVi:   vi.id,
				dstVi:   conn.peerVi,
				errSts:  StatusRdmaProtError,
				readReq: pkt.readReq,
			}, conn.peerNode)
			return rm.tail()
		}
		// Stream the data back as read-response fragments on this NIC's
		// send direction of the connection.
		buf, off, err := n.host.AS.Locate(pkt.remoteAddr, pkt.msgTotal)
		if err != nil {
			return rm.tail()
		}
		rm.target[0] = segRun{addr: pkt.remoteAddr, buf: buf, off: off, n: pkt.msgTotal}
		rm.frags = nicsim.AppendFragments(rm.frags[:0], pkt.msgTotal, m.WireMTU)
		rm.fi = 0
		return m.PerFragment, rReqFragDone

	case rReqFragDone:
		f := rm.frags[rm.fi]
		n.BusyFrag += m.PerFragment
		rm.sp.add(phaseFrag, m.PerFragment, rm.now())
		n.FragsSent++
		if f.Size > 0 {
			if d := n.stallD(fault.SiteDMA); d > 0 {
				return d, rReqStallDone
			}
			return rm.Step(rReqStallDone)
		}
		return rm.emitReadResp()

	case rReqStallDone:
		f := rm.frags[rm.fi]
		rm.sp.mark(phaseDMA, rm.now())
		rm.xd = n.xlateCost(rm.target[:], f.Offset, f.Size)
		return rm.xd, rReqXlateDone

	case rReqXlateDone:
		f := rm.frags[rm.fi]
		n.BusyXlate += rm.xd
		rm.sp.add(phaseXlate, rm.xd, rm.now())
		rm.dd = sim.Duration(f.Size) * m.DMAPerByte
		return rm.dd, rReqDMADone

	case rReqDMADone:
		f := rm.frags[rm.fi]
		n.BusyDMA += rm.dd
		rm.sp.add(phaseDMA, rm.dd, rm.now())
		n.DMABytesOut += uint64(f.Size)
		return rm.emitReadResp()

	// --- pktRdmaReadResp ---

	case rReadRespFragDone:
		n.BusyFrag += m.PerFragmentRecv
		rm.sp.add(phaseReassembly, m.PerFragmentRecv, rm.now())
		n.FragsRecv++
		if !rm.lookup() {
			return rm.tail()
		}
		if d, next, handled := rm.seqKept(); handled {
			return d, next
		}
		return rm.ackThen(rReadRespAcked)

	case rReadRespAcked:
		conn := rm.conn
		rs := conn.outstandingReads[pkt.readReq]
		if rs == nil {
			return rm.tail()
		}
		rm.rs = rs
		done, ok := conn.readReasm.Accept(pkt.readReq, pkt.frag, pkt.msgTotal)
		rm.msgDone = done
		if ok && pkt.frag.Size > 0 {
			if d := n.stallD(fault.SiteDMA); d > 0 {
				return d, rRespStallDone
			}
			return rm.Step(rRespStallDone)
		}
		return rm.Step(rRespStored)

	case rRespStallDone:
		rm.sp.mark(phaseDMA, rm.now())
		rm.xd = n.xlateCost(rm.rs.runs, pkt.frag.Offset, pkt.frag.Size)
		return rm.xd, rRespXlateDone

	case rRespXlateDone:
		n.BusyXlate += rm.xd
		rm.sp.add(phaseXlate, rm.xd, rm.now())
		rm.dd = sim.Duration(pkt.frag.Size) * m.DMAPerByte
		return rm.dd, rRespDMADone

	case rRespDMADone:
		n.BusyDMA += rm.dd
		rm.sp.add(phaseDMA, rm.dd, rm.now())
		n.DMABytesIn += uint64(pkt.frag.Size)
		scatter(rm.rs.runs, pkt.frag.Offset, pkt.frag.Size, pkt.data)
		return rm.Step(rRespStored)

	case rRespStored:
		if rm.msgDone {
			delete(rm.conn.outstandingReads, pkt.readReq)
			n.completeSend(rm.vi, rm.rs.desc, StatusSuccess, pkt.msgTotal)
		}
		return rm.tail()

	// --- pktAck / pktErrAck ---

	case rAckProcDone:
		n.BusyAck += m.AckProcessing
		n.AcksRecv++
		if !rm.lookup() {
			return rm.tail()
		}
		vi, conn := rm.vi, rm.conn
		for _, pend := range conn.window.Ack(pkt.ackSeq) {
			// Karn's algorithm: only never-retransmitted packets yield RTT
			// samples, so a retransmission's ack cannot be mis-attributed.
			if conn.rto.Adaptive && pend.Retries == 0 {
				conn.rto.Sample(rm.now().Sub(pend.SentAt))
			}
			if sent := pend.Item.(*wirePacket); sent.desc != nil {
				n.completeSend(vi, sent.desc, StatusSuccess, sent.msgTotal)
			}
		}
		return rm.tail()

	case rErrAckProcDone:
		n.BusyAck += m.AckProcessing
		if !rm.lookup() {
			return rm.tail()
		}
		vi, conn := rm.vi, rm.conn
		if pkt.readReq != 0 {
			if rs := conn.outstandingReads[pkt.readReq]; rs != nil {
				delete(conn.outstandingReads, pkt.readReq)
				n.completeSend(vi, rs.desc, pkt.errSts, 0)
			}
		} else {
			conn.window.ForEachUnacked(func(pend *nicsim.Pending) bool {
				sent := pend.Item.(*wirePacket)
				if sent.desc != nil && sent.msgID == pkt.errMsg {
					n.completeSend(vi, sent.desc, pkt.errSts, 0)
				}
				return true
			})
		}
		// A protection error on a reliable connection is fatal: the VIA
		// transitions the connection to the error state.
		n.failConn(vi)
		return rm.tail()
	}
	panic("via: recvMachine: bad state")
}

// emitReadResp snapshots and transmits the current read-response
// fragment, advancing the responder's fragment loop; after the last
// fragment it arms the retransmission timer. Like emitFrag, it sends a
// nil payload for a fragment of an unbacked buffer.
func (rm *recvMachine) emitReadResp() (sim.Duration, int) {
	n := rm.n
	m := n.model
	sys := n.host.sys
	vi, conn, pkt := rm.vi, rm.conn, rm.pkt
	f := rm.frags[rm.fi]
	var buf []byte
	if !unbacked(rm.target[:], f.Offset, f.Size) {
		buf = sys.bufs.Get(f.Size)
		gather(rm.target[:], f.Offset, buf)
	}
	resp := sys.getPkt()
	resp.kind = pktRdmaReadResp
	resp.srcVi = vi.id
	resp.dstVi = conn.peerVi
	resp.readReq = pkt.readReq
	resp.frag = f
	resp.msgTotal = pkt.msgTotal
	resp.data = buf
	resp.span = rm.sp // the requester's span rides back on the response
	resp.seq, resp.hasSeq = conn.window.Add(resp, rm.now()), true
	n.send(resp, conn.peerNode)

	rm.fi++
	if rm.fi < len(rm.frags) {
		return m.PerFragment, rReqFragDone
	}
	n.armRTO(vi)
	return rm.tail()
}

// lookupVi validates that an inbound data-path packet targets a live
// connection from the claimed source.
func (n *Nic) lookupVi(src fabric.NodeID, pkt *wirePacket) *Vi {
	vi := n.vis[pkt.dstVi]
	if vi == nil || vi.state != ViConnected || vi.conn.peerNode != src || vi.conn.peerVi != pkt.srcVi {
		return nil
	}
	return vi
}

// finishRecv completes a receive descriptor now. A successful receive
// whose final fragment still needs the kernel copy on host-copy providers
// completes later instead, through recvCompletion.
func (n *Nic) finishRecv(vi *Vi, d *Descriptor, st Status, length int) {
	if !d.done {
		vi.recvQ.complete(d, st, length)
	}
}

// failConn breaks a connection: outstanding work completes with transport
// errors, remaining queued work flushes, the VI enters the error state,
// the peer is told to tear down, and the NIC's asynchronous error handler
// (the VipErrorCallback analogue) fires exactly once.
func (n *Nic) failConn(vi *Vi) {
	if vi.state != ViConnected {
		return // already failed or torn down; the callback must not refire
	}
	conn := vi.conn
	conn.window.ForEachUnacked(func(pend *nicsim.Pending) bool {
		if sent := pend.Item.(*wirePacket); sent.desc != nil {
			n.completeSend(vi, sent.desc, StatusTransportError, 0)
		}
		return true
	})
	for id, rs := range conn.outstandingReads {
		delete(conn.outstandingReads, id)
		n.completeSend(vi, rs.desc, StatusTransportError, 0)
	}
	peerNode, peerVi := conn.peerNode, conn.peerVi
	srcVi := vi.id
	vi.teardown(ViError)
	n.sendCtl(&wirePacket{kind: pktDisconnect, srcVi: srcVi, dstVi: peerVi}, peerNode)
	n.fireError(vi, StatusTransportError)
}

// --- Retransmission ---

// armRTO schedules a retransmission check for the VI's window if one is
// not already pending, at the policy's current timeout.
func (n *Nic) armRTO(vi *Vi) {
	if vi.conn == nil {
		return
	}
	n.armRTOAfter(vi, vi.conn.rto.Timeout())
}

func (n *Nic) armRTOAfter(vi *Vi, d sim.Duration) {
	conn := vi.conn
	if conn == nil || conn.rtoArmed {
		return
	}
	conn.rtoArmed = true
	n.host.sys.Eng.AfterHandler(d, (*rtoTimer)(vi), 0)
}

func (n *Nic) rtoFire(vi *Vi) {
	conn := vi.conn
	if conn == nil {
		return
	}
	conn.rtoArmed = false
	if vi.state != ViConnected || conn.window.Outstanding() == 0 {
		return
	}
	eng := n.host.sys.Eng
	oldest := conn.window.Oldest()
	if age := eng.Now().Sub(oldest.SentAt); age < conn.rto.Timeout() {
		// Acks have been flowing; check again when the oldest packet
		// actually times out.
		conn.rtoArmed = true
		eng.AfterHandler(conn.rto.Timeout()-age, (*rtoTimer)(vi), 0)
		return
	}
	// Give up only after MaxRetries consecutive timeouts with no forward
	// progress of the oldest unacked sequence; otherwise a long
	// recovering window would accumulate spurious retry counts. This is
	// retransmission exhaustion: in-flight work completes with
	// StatusTransportError and the VI enters the error state.
	if conn.rto.Stalled(oldest.Seq) {
		n.failConn(vi)
		return
	}
	// Go-back-N, paced: resend at most a burst's worth per timeout so a
	// large in-flight window does not flood the wire (and re-time-out on
	// its own retransmissions).
	const resendBurst = 32
	resent := 0
	conn.window.ForEachUnacked(func(pend *nicsim.Pending) bool {
		if resent >= resendBurst {
			return false
		}
		pend.SentAt = eng.Now()
		pend.Retries++
		conn.window.Retransmits++
		n.send(pend.Item.(*wirePacket), conn.peerNode)
		resent++
		return true
	})
	// Exponential backoff while the oldest sequence makes no progress:
	// under heavy queueing the true round trip dwarfs the base timeout,
	// and retransmitting at the base rate would congest the link with
	// duplicates faster than it drains.
	n.armRTOAfter(vi, conn.rto.Backoff())
}
