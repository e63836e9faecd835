package via

import (
	"vibe/internal/fault"
	"vibe/internal/nicsim"
	"vibe/internal/provider"
	"vibe/internal/sim"
)

// Nic is one host's VIA network interface: the user-facing provider object
// (mirroring the VipNic handle) plus the simulated NIC processor state.
type Nic struct {
	host  *Host
	model *provider.Model

	vis      map[int]*Vi
	nextViID int
	openVIs  int

	regions    map[MemHandle]*region
	nextHandle MemHandle

	tlb *nicsim.TLB

	// doorbells carries send work notifications from the host to the NIC
	// send engine. Rung doorbells are recycled through dbFree so steady
	//-state posting does not allocate.
	doorbells *sim.Queue[*doorbell]
	dbFree    []*doorbell

	// Connection management state (see conn.go): every request received,
	// in arrival order, whether still pending or already handled.
	connReqs    []*ConnRequest
	connArrived *sim.Signal

	nextMsgID  uint64
	nextReadID uint64

	// Counters exposed for tests and reports. SendsProcessed counts
	// doorbells the send engine consumed; each consumption is also exactly
	// one descriptor fetch in this NIC model.
	SendsProcessed uint64
	RecvsCompleted uint64
	DroppedNoDesc  uint64

	// Data-path counters for the metrics layer: wire fragments and DMA
	// bytes in each direction, acks on the reliability protocol, and
	// posted work by operation.
	FragsSent   uint64
	FragsRecv   uint64
	DMABytesOut uint64
	DMABytesIn  uint64
	AcksSent    uint64
	AcksRecv    uint64

	PostedSends uint64
	PostedRecvs uint64
	RdmaWrites  uint64
	RdmaReads   uint64

	// completions counts completed descriptors by the VI's reliability
	// level (Unreliable, ReliableDelivery, ReliableReception).
	completions [3]uint64

	// completions by terminal status, for the error-semantics paths:
	// FlushedDescs counts descriptors completed StatusFlushed (queue
	// flushes at disconnect/failure), TransportErrs counts
	// StatusTransportError completions (retransmission exhaustion).
	FlushedDescs  uint64
	TransportErrs uint64

	// Fault-injection observability: frames discarded by the receive
	// engine's CRC check, virtual time lost to injected doorbell/DMA
	// stalls, and connections broken by transport failure.
	CorruptDrops   uint64
	FaultStallTime sim.Duration
	ConnErrors     uint64

	// Window/sequence counters absorbed from connections at teardown;
	// live connections are added on top at collection time.
	winAcked, winRetransmits uint64
	recvDups, recvGaps       uint64
	rtoBackoffs              uint64

	// Busy-time attribution: virtual time the NIC engines spent in each
	// cost-component phase, accumulated alongside the Sleeps that model
	// them. Always on (plain additions), feeding both the nic{i}.busy.*
	// metrics keys and the virtual-time profiler.
	BusyDoorbell sim.Duration
	BusyFetch    sim.Duration
	BusyFrag     sim.Duration
	BusyXlate    sim.Duration
	BusyDMA      sim.Duration
	BusyAck      sim.Duration

	// faults is the system's compiled fault plan (nil when none): the
	// send/receive engines consult it for doorbell and DMA stalls.
	faults *fault.Injector

	// errCB, when set, receives asynchronous connection-failure events —
	// the VipErrorCallback analogue. See SetErrorCallback.
	errCB func(*Ctx, ErrorEvent)
}

// ErrorEvent describes an asynchronous VIA error: the affected VI and the
// status its in-flight work completed with.
type ErrorEvent struct {
	Vi   *Vi
	Code Status
}

// SetErrorCallback installs handler as the NIC's asynchronous error
// handler, the analogue of VipErrorCallback: when a connection fails
// (retransmission exhaustion, fatal protection error), the handler runs
// in a fresh process after the provider's dispatch cost, exactly once per
// failure. Pass nil to remove it.
func (n *Nic) SetErrorCallback(handler func(*Ctx, ErrorEvent)) {
	n.errCB = handler
}

// countStatus attributes one descriptor completion to the error-semantics
// counters.
func (n *Nic) countStatus(st Status) {
	switch st {
	case StatusFlushed:
		n.FlushedDescs++
	case StatusTransportError:
		n.TransportErrs++
	}
}

// fireError counts a connection failure and dispatches the error handler
// asynchronously. failConn guarantees it runs at most once per failure.
func (n *Nic) fireError(vi *Vi, code Status) {
	n.ConnErrors++
	cb := n.errCB
	if cb == nil {
		return
	}
	h := n.host
	h.sys.Eng.Spawn(procName(h, "err-cb"), func(p *sim.Proc) {
		ctx := &Ctx{P: p, Host: h}
		ctx.use(n.model.NotifyDispatch)
		cb(ctx, ErrorEvent{Vi: vi, Code: code})
	})
}

func newNic(h *Host) *Nic {
	m := h.sys.Model
	n := &Nic{
		host:        h,
		model:       m,
		vis:         make(map[int]*Vi),
		regions:     make(map[MemHandle]*region),
		doorbells:   sim.NewQueue[*doorbell](h.sys.Eng),
		connArrived: sim.NewSignal(h.sys.Eng),
	}
	if m.TranslationAt == provider.TranslateAtNIC && m.TablesAt == provider.TablesInHostMemory {
		n.tlb = nicsim.NewTLB(m.TLBCapacity, m.TLBPolicy)
	}
	eng := h.sys.Eng
	inbox := h.sys.Net.Inbox(h.id)
	if h.sys.pm == ModelGoroutine {
		// Reference model: each engine is a daemon process driving its
		// machine through blocking Pops and Sleeps.
		eng.Spawn(procName(h, "nic-send"), func(p *sim.Proc) {
			p.SetDaemon(true)
			n.doorbells.ServeProc(p, &sendMachine{n: n})
		})
		eng.Spawn(procName(h, "nic-recv"), func(p *sim.Proc) {
			p.SetDaemon(true)
			inbox.ServeProc(p, &recvMachine{n: n})
		})
		return n
	}
	// Zero-handoff model: the same machines run as event-loop services.
	// The two inert anchor events sit exactly where the goroutine model's
	// two process-start events would, keeping the engines' event sequence
	// numbers — and therefore every downstream (time, seq) tie-break —
	// identical between the models.
	eng.At(eng.Now(), func() {})
	eng.At(eng.Now(), func() {})
	n.doorbells.Serve(&sendMachine{n: n})
	inbox.Serve(&recvMachine{n: n})
	return n
}

func procName(h *Host, s string) string {
	return s + "@" + string(rune('0'+int(h.id)))
}

// Host returns the NIC's host.
func (n *Nic) Host() *Host { return n.host }

// ring posts a doorbell for (vi, d), reusing a recycled one if available.
func (n *Nic) ring(vi *Vi, d *Descriptor) {
	var db *doorbell
	if k := len(n.dbFree); k > 0 {
		db = n.dbFree[k-1]
		n.dbFree[k-1] = nil
		n.dbFree = n.dbFree[:k-1]
	} else {
		db = &doorbell{}
	}
	db.vi, db.desc = vi, d
	n.doorbells.Push(db)
}

// rung returns a doorbell consumed by the send engine to the free list.
func (n *Nic) rung(db *doorbell) {
	db.vi, db.desc = nil, nil
	n.dbFree = append(n.dbFree, db)
}

// Attributes describes the provider, mirroring VipQueryNic.
func (n *Nic) Attributes() NicAttributes {
	var levels []ReliabilityLevel
	for _, lv := range []ReliabilityLevel{Unreliable, ReliableDelivery, ReliableReception} {
		if n.model.Supports(uint8(lv)) {
			levels = append(levels, lv)
		}
	}
	return NicAttributes{
		Name:                 n.model.Name,
		MaxTransferSize:      n.model.MaxTransferSize,
		MaxSegments:          n.model.MaxSegments,
		WireMTU:              n.model.WireMTU,
		RdmaWriteSupported:   n.model.SupportsRDMAWrite,
		RdmaReadSupported:    n.model.SupportsRDMARead,
		ReliabilitySupported: levels,
	}
}

// TLB exposes the NIC translation cache for tests and ablation reports
// (nil when the provider does not use one).
func (n *Nic) TLB() *nicsim.TLB { return n.tlb }

// OpenVIs reports the number of live VIs on this NIC.
func (n *Nic) OpenVIs() int { return n.openVIs }

// CreateVi creates a VI with the given attributes, optionally associating
// its work queues with completion queues, mirroring VipCreateVi. Either CQ
// may be nil.
func (n *Nic) CreateVi(ctx *Ctx, attrs ViAttributes, sendCQ, recvCQ *CQ) (*Vi, error) {
	if !n.model.Supports(uint8(attrs.Reliability)) {
		return nil, ErrNotSupported
	}
	if attrs.EnableRdmaWrite && !n.model.SupportsRDMAWrite {
		return nil, ErrNotSupported
	}
	if attrs.EnableRdmaRead && !n.model.SupportsRDMARead {
		return nil, ErrNotSupported
	}
	if attrs.MaxTransferSize == 0 || attrs.MaxTransferSize > n.model.MaxTransferSize {
		attrs.MaxTransferSize = n.model.MaxTransferSize
	}
	for _, cq := range []*CQ{sendCQ, recvCQ} {
		if cq != nil && cq.destroyed {
			return nil, ErrDestroyed
		}
	}
	ctx.use(n.model.ViCreate)

	n.nextViID++
	vi := &Vi{
		nic:       n,
		id:        n.nextViID,
		attrs:     attrs,
		state:     ViIdle,
		connReply: sim.NewSignal(n.host.sys.Eng),
	}
	vi.sendQ = newWorkQueue(n.host, vi, false, sendCQ)
	vi.recvQ = newWorkQueue(n.host, vi, true, recvCQ)
	n.vis[vi.id] = vi
	n.openVIs++
	return vi, nil
}

// CreateCQ creates a completion queue of the given depth, mirroring
// VipCreateCQ.
func (n *Nic) CreateCQ(ctx *Ctx, depth int) (*CQ, error) {
	if depth <= 0 {
		return nil, ErrLength
	}
	ctx.use(n.model.CqCreate)
	return &CQ{nic: n, depth: depth, sig: sim.NewSignal(n.host.sys.Eng)}, nil
}
