package via

import (
	"vibe/internal/fabric"
	"vibe/internal/nicsim"
	"vibe/internal/provider"
	"vibe/internal/sim"
)

// connState is the per-connection transport state a connected VI carries.
type connState struct {
	peerNode fabric.NodeID
	peerVi   int

	// Sender-side reliability window and receiver-side sequence tracking
	// (used only on reliable connections).
	window  nicsim.Window
	recvSeq nicsim.RecvSeq

	// Reassembly of inbound sends and of inbound RDMA writes/read
	// responses. Sends and RDMA arrive from different engine paths at the
	// peer, so each kind is in-order within itself.
	reasm     nicsim.Reassembler
	rdmaReasm nicsim.Reassembler
	readReasm nicsim.Reassembler

	// curRecv is the receive descriptor currently being filled, with its
	// resolved segments.
	curRecv     *Descriptor
	curRecvRuns []segRun

	// dropping marks a message being discarded (no descriptor posted, or
	// message larger than the descriptor).
	dropping  bool
	dropMsgID uint64

	outstandingReads map[uint64]*readState

	rtoArmed bool
	// rto is the retransmission-timeout policy: backoff, the give-up
	// threshold (the connection fails only after MaxRetries consecutive
	// timeouts during which the oldest unacked sequence made no
	// progress), and optionally the adaptive RTT estimator.
	rto nicsim.RTO
}

// readState tracks one outstanding RDMA read at the initiator.
type readState struct {
	desc *Descriptor
	runs []segRun
}

// connRetry is how long ConnectRequest waits for a reply before sending
// its request again. Connection-management packets cross the same lossy
// fabric as data and have no retransmission window, so a lost request or
// reply is recovered by repeating the request; the server answers a
// repeat by repeating its reply (see connRequestArrived). The interval is
// far above any handshake's round trip, so a run that loses no handshake
// packet never repeats one.
const connRetry = 100 * sim.Millisecond

// ConnRequest is an inbound connection request delivered to a server's
// ConnectWait, mirroring the (connection handle, remote attributes) pair
// of VipConnectWait.
type ConnRequest struct {
	nic         *Nic
	disc        string
	clientNode  fabric.NodeID
	clientVi    int
	reliability ReliabilityLevel
	taken       bool // returned by ConnectWait
	handled     bool // accepted or rejected
	vi          *Vi  // the accepting VI, once accepted
}

// connRequestArrived records an inbound connection request. A repeat of a
// request already received (same client node and VI) is not queued again:
// if it was answered, the answer is sent again, since the client repeats
// only when no answer reached it; otherwise it is still pending and is
// dropped.
func (n *Nic) connRequestArrived(src fabric.NodeID, pkt *wirePacket) {
	for _, r := range n.connReqs {
		if r.clientNode != src || r.clientVi != pkt.srcVi {
			continue
		}
		switch {
		case r.vi != nil && r.vi.state == ViConnected:
			n.sendCtl(&wirePacket{kind: pktConnAccept, srcVi: r.vi.id, dstVi: r.clientVi}, src)
		case r.handled && r.vi == nil:
			n.sendCtl(&wirePacket{kind: pktConnReject, dstVi: r.clientVi}, src)
		}
		return
	}
	n.connReqs = append(n.connReqs, &ConnRequest{
		nic:         n,
		disc:        pkt.disc,
		clientNode:  src,
		clientVi:    pkt.srcVi,
		reliability: pkt.reliability,
	})
	n.connArrived.Broadcast()
}

// Discriminator returns the address discriminator the client dialed.
func (r *ConnRequest) Discriminator() string { return r.disc }

// RemoteNode returns the requesting host.
func (r *ConnRequest) RemoteNode() fabric.NodeID { return r.clientNode }

// Reliability returns the reliability level the client's VI was created
// with; the accepting VI must match.
func (r *ConnRequest) Reliability() ReliabilityLevel { return r.reliability }

// ConnectWait blocks until a connection request arrives for the given
// discriminator, mirroring VipConnectWait.
func (n *Nic) ConnectWait(ctx *Ctx, disc string, timeout sim.Duration) (*ConnRequest, error) {
	deadline := ctx.Now().Add(timeout)
	for {
		for _, r := range n.connReqs {
			if !r.taken && r.disc == disc {
				r.taken = true
				return r, nil
			}
		}
		remain := deadline.Sub(ctx.Now())
		if remain <= 0 {
			return nil, ErrTimeout
		}
		if !n.connArrived.WaitTimeout(ctx.P, remain) {
			return nil, ErrTimeout
		}
	}
}

// Accept accepts the request on vi, mirroring VipConnectAccept. The VI
// must be idle and its reliability level must match the client's; on
// mismatch the request is rejected and an error returned.
func (r *ConnRequest) Accept(ctx *Ctx, vi *Vi) error {
	n := r.nic
	if r.handled {
		return ErrInvalidState
	}
	if vi.nic != n || vi.state != ViIdle {
		return ErrInvalidState
	}
	if vi.attrs.Reliability != r.reliability {
		r.reject(ctx)
		return ErrNotSupported
	}
	r.handled = true
	r.vi = vi
	ctx.use(n.model.ConnAcceptCost)
	vi.conn = newConnState(n.model, r.clientNode, r.clientVi)
	vi.state = ViConnected
	n.sendCtl(&wirePacket{kind: pktConnAccept, srcVi: vi.id, dstVi: r.clientVi}, r.clientNode)
	return nil
}

// Reject declines the request, mirroring VipConnectReject.
func (r *ConnRequest) Reject(ctx *Ctx) error {
	if r.handled {
		return ErrInvalidState
	}
	r.reject(ctx)
	return nil
}

func (r *ConnRequest) reject(ctx *Ctx) {
	r.handled = true
	ctx.use(r.nic.model.ConnAcceptCost)
	r.nic.sendCtl(&wirePacket{kind: pktConnReject, dstVi: r.clientVi}, r.clientNode)
}

// ConnectRequest dials (remote node, discriminator) from this VI and
// blocks until the peer accepts, rejects, or the timeout expires,
// mirroring VipConnectRequest.
func (v *Vi) ConnectRequest(ctx *Ctx, remote fabric.NodeID, disc string, timeout sim.Duration) error {
	n := v.nic
	if v.state != ViIdle {
		return ErrInvalidState
	}
	ctx.use(n.model.ConnRequestCost)
	v.connAccepted, v.connRejected = false, false
	request := func() {
		n.sendCtl(&wirePacket{
			kind:        pktConnReq,
			srcVi:       v.id,
			disc:        disc,
			reliability: v.attrs.Reliability,
		}, remote)
	}
	request()

	// Wait for the reply, repeating the request every connRetry.
	deadline := ctx.Now().Add(timeout)
	for !v.connAccepted && !v.connRejected {
		remain := deadline.Sub(ctx.Now())
		if remain <= 0 {
			return ErrTimeout
		}
		wait := min(remain, connRetry)
		if !v.connReply.WaitTimeout(ctx.P, wait) {
			if wait == remain {
				return ErrTimeout
			}
			request()
		}
	}
	if v.connRejected {
		return ErrRejected
	}
	return nil
}

// Disconnect tears the connection down, mirroring VipDisconnect. Pending
// descriptors on both sides complete with StatusFlushed.
func (v *Vi) Disconnect(ctx *Ctx) error {
	if v.state != ViConnected {
		return ErrNotConnected
	}
	ctx.use(v.nic.model.ConnTeardownCost)
	peer := v.conn
	v.nic.sendCtl(&wirePacket{kind: pktDisconnect, srcVi: v.id, dstVi: peer.peerVi}, peer.peerNode)
	v.teardown(ViDisconnected)
	return nil
}

// teardown flushes queues and moves the VI to the given terminal state.
func (v *Vi) teardown(st ViState) {
	v.flushQueues(StatusFlushed)
	if v.conn != nil {
		// Absorb the connection's reliability counters into the NIC (then
		// zero them) so metrics collection after teardown still sees them,
		// and collection of a live connection never double counts.
		n := v.nic
		n.winAcked += v.conn.window.Acked
		n.winRetransmits += v.conn.window.Retransmits
		n.recvDups += v.conn.recvSeq.Duplicates
		n.recvGaps += v.conn.recvSeq.Gaps
		n.rtoBackoffs += v.conn.rto.Backoffs
		v.conn.window.Acked, v.conn.window.Retransmits = 0, 0
		v.conn.recvSeq.Duplicates, v.conn.recvSeq.Gaps = 0, 0
		v.conn.rto.Backoffs = 0
		v.conn.window.Reset()
		v.conn.reasm.Abort()
		v.conn.rdmaReasm.Abort()
		v.conn.readReasm.Abort()
		v.conn.curRecv = nil
	}
	v.state = st
}

func newConnState(m *provider.Model, peer fabric.NodeID, peerVi int) *connState {
	cs := &connState{
		peerNode:         peer,
		peerVi:           peerVi,
		outstandingReads: make(map[uint64]*readState),
	}
	cs.rto.Init(m.RetransmitTimeout, m.MaxRetries, m.AdaptiveRTO)
	return cs
}
