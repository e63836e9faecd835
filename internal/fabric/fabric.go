// Package fabric models the interconnect of the simulated cluster: hosts
// attached through full-duplex links to a switched fabric, with per-link
// bandwidth serialization, propagation latency, per-switch forwarding
// delay, finite output buffers with credit-based backpressure, and
// optional loss injection. The default topology is a single crossbar
// switch; fat-tree, dragonfly, and 3D-torus graphs route packets across
// multiple switches, each hop serializing on its own output port so
// congestion is emergent rather than modeled (see Topology).
//
// The fabric is deliberately protocol-agnostic: it moves opaque payloads of
// a declared wire size between node inboxes. The NIC models in
// internal/via implement framing, fragmentation and reliability on top.
package fabric

import (
	"fmt"
	"math"

	"vibe/internal/sim"
)

// NodeID identifies a host attached to the fabric.
type NodeID int

// Trace event names: a link's transmits and receives, and a switch's
// forwarding spans.
var (
	traceTx  = sim.NewTraceName("tx dst=% %B")
	traceRx  = sim.NewTraceName("rx src=% %B")
	traceFwd = sim.NewTraceName("fwd dst=% %B hop=%/%")
)

// Params describes the physical characteristics of a network. All three of
// the paper's interconnects (Myrinet, Gigabit Ethernet, Giganet cLAN) are
// instances of this shape with different constants.
type Params struct {
	Name string

	// BandwidthBps is the link bandwidth in bits per second. Every link
	// (host-switch, switch-switch, switch-host) runs at this rate.
	BandwidthBps float64

	// LinkLatency is the propagation delay of one link hop.
	LinkLatency sim.Duration

	// SwitchLatency is a switch's store-and-forward/arbitration delay,
	// paid once per switch traversed.
	SwitchLatency sim.Duration

	// FrameOverhead is the per-packet wire framing in bytes (headers,
	// preamble, CRC) added to every packet's serialization time.
	FrameOverhead int

	// DropRate is the probability that any given packet is silently lost.
	// Real SANs are nearly lossless; reliability benchmarks raise this to
	// exercise retransmission.
	DropRate float64

	// Topology selects the switch graph: "" or "crossbar" (one central
	// switch, the default), "fattree", "dragonfly", or "torus3d". See
	// BuildTopology.
	Topology string

	// TopologyDegree is the host-attachment arity of routed topologies:
	// hosts per leaf (and the spine count) for fattree, hosts per router
	// for dragonfly, hosts per switch for torus3d. 0 picks the topology
	// default.
	TopologyDegree int

	// SwitchBufPkts bounds every switch output port's queue, in packets.
	// A full queue withholds transmit credit from the upstream stage, so
	// congestion backpressures hop by hop all the way to the sending NIC
	// (whose Send return value moves out accordingly). 0 means unbounded
	// ideal switches — the crossbar baseline behavior.
	SwitchBufPkts int

	// RoutePolicy selects how Send picks among a topology's candidate
	// paths: "" or "failover" (deterministic — the primary path unless an
	// element oracle reports a switch or inter-switch link down, then the
	// first alive alternate in candidate order), or "adaptive"
	// (least-queued — the alive candidate whose output ports carry the
	// least pending work, ties to the lowest candidate index). With no
	// oracle installed, failover is byte-identical to the pre-multipath
	// single-path routing.
	RoutePolicy string
}

// Route policies (see Params.RoutePolicy).
const (
	RouteFailover = "failover"
	RouteAdaptive = "adaptive"
)

// RoutePolicyNames lists the route policies in canonical order.
func RoutePolicyNames() []string { return []string{RouteFailover, RouteAdaptive} }

// SerializationTime reports how long a payload of n bytes occupies a link.
func (p *Params) SerializationTime(n int) sim.Duration {
	bits := float64(n+p.FrameOverhead) * 8
	return sim.Duration(bits / p.BandwidthBps * float64(sim.Second))
}

// Delivery is what arrives in a node's inbox. Inboxes carry *Delivery
// values drawn from a network-local free list; the receiver hands each one
// back with Recycle once it has read the fields.
type Delivery struct {
	Src     NodeID
	Dst     NodeID
	Size    int // wire payload bytes (excluding frame overhead)
	Payload interface{}

	// Corrupted marks a packet whose frame check failed in flight. The
	// fabric still delivers it — detection happens at the receiving NIC,
	// which discards the frame — so corruption costs wire time, exactly
	// like a real CRC drop.
	Corrupted bool

	// Shared marks a delivery whose Payload is aliased by another copy
	// (fault-injected duplication). Receivers must not recycle shared
	// payloads back into sender-owned free lists.
	Shared bool

	// recycled guards against double Recycle: set when the delivery is
	// handed back, cleared when it is drawn again.
	recycled bool
}

// DropFilter decides whether a particular packet should be lost. It runs
// after the injector chain and before the random drop check; returning
// true drops the packet. The index is a global packet sequence number, so
// tests can target exact packets.
type DropFilter func(index uint64, d Delivery) bool

// DropCause classifies why the fabric dropped a packet.
type DropCause int

const (
	// DropCauseFault: an injector chain verdict (fault plans, link outages).
	DropCauseFault DropCause = iota
	// DropCauseFilter: the SetDropFilter callback.
	DropCauseFilter
	// DropCauseRate: the probabilistic Params.DropRate coin.
	DropCauseRate

	dropCauses
)

// String names the cause for metrics keys and error messages.
func (c DropCause) String() string {
	switch c {
	case DropCauseFault:
		return "fault"
	case DropCauseFilter:
		return "filter"
	case DropCauseRate:
		return "rate"
	}
	return "unknown"
}

// PacketFault is an injector's verdict on one packet. The zero value means
// "deliver untouched". Verdicts from a chain of injectors combine: any
// drop wins, corruption and duplication accumulate, delays add.
type PacketFault struct {
	Drop       bool
	Corrupt    bool
	Duplicates int
	Delay      sim.Duration
}

// merge combines two verdicts on the same packet.
func (f PacketFault) merge(g PacketFault) PacketFault {
	f.Drop = f.Drop || g.Drop
	f.Corrupt = f.Corrupt || g.Corrupt
	f.Duplicates += g.Duplicates
	f.Delay += g.Delay
	return f
}

// PacketInjector inspects every packet entering the fabric and returns a
// fault verdict. Injectors run on the sender's side before loss checks;
// index is the same global packet sequence number DropFilter sees.
type PacketInjector interface {
	InjectPacket(index uint64, now sim.Time, d *Delivery) PacketFault
}

// ElementOracle answers fabric-element liveness questions at an instant;
// a compiled fault plan implements it for switch-down and
// switch-link-down specs. Liveness is consulted synchronously when Send
// resolves a route — packets already in flight deliver normally, the way
// a real fabric drains wires behind a failing crossbar — and the oracle
// must be a pure function of its arguments so both process models and
// repeated runs see identical routes.
type ElementOracle interface {
	// SwitchDown reports whether switch s is dead at now.
	SwitchDown(s int, now sim.Time) bool
	// SwitchLinkDown reports whether the inter-switch link {a, b} is dead
	// at now. Implementations must be order-insensitive in (a, b).
	SwitchLinkDown(a, b int, now sim.Time) bool
}

type port struct {
	up   *sim.Pipe // node -> switch
	down *sim.Pipe // switch -> node
	in   *sim.Queue[*Delivery]

	// wire is the down link's in-flight FIFO: packets waiting for their
	// delivery instant, consumed from wireHead. One standing engine event
	// per port (armed, firing deliver) walks it instead of one event per
	// packet — see Network.enqueue.
	wire     []flight
	wireHead int
	armed    bool
	deliver  func()

	// Per-link traffic counters (wire payload bytes, like BytesSent).
	txPkts, txBytes uint64
	rxPkts, rxBytes uint64

	// rxCorrupt splits rxPkts: frames that arrived with a failed check
	// and will be discarded by the receiving NIC, so consumed packets
	// reconcile as rxPkts - rxCorrupt.
	rxCorrupt uint64

	// Drops of packets this node transmitted, split by cause.
	drops [dropCauses]uint64
}

// flight is one packet in a port's in-flight FIFO.
type flight struct {
	d  *Delivery
	at sim.Time
}

// LinkStats is one attached link's traffic totals. Drops are attributed
// to the transmitting link, split by cause; Dropped is their sum.
// Delivered packets obey Sent - Dropped + Duplicated = Delivered when
// summed across all links (per-port conservation).
type LinkStats struct {
	TxPackets, TxBytes uint64
	RxPackets, RxBytes uint64

	// RxCorrupt counts received frames whose check failed in flight; they
	// are included in RxPackets/RxBytes (they cost wire time) but the NIC
	// discards them before protocol processing.
	RxCorrupt uint64

	Dropped       uint64
	DroppedFault  uint64 // injector chain (fault plans, link outages)
	DroppedFilter uint64 // SetDropFilter callback
	DroppedRate   uint64 // probabilistic Params.DropRate
}

// timeNever marks an output-queue slot as occupied while its release
// instant is still being computed (the whole path resolves within one
// Send call, so the sentinel never escapes).
const timeNever = sim.Time(math.MaxInt64)

// outPort is one switch output queue: the transmit pipe serializing onto
// the outgoing link plus, when the fabric has finite buffers, a credit
// ring of occupied-slot release instants.
type outPort struct {
	pipe *sim.Pipe

	// rel holds the release instant of each occupied buffer slot;
	// len(rel) == Params.SwitchBufPkts. nil means unbounded.
	rel []sim.Time

	txPkts, txBytes uint64

	// Credit accounting: how often (and for how long) an upstream stage
	// had to wait for a free slot in this queue, and the deepest
	// occupancy an admission observed (finite buffers only).
	creditStalls uint64
	stallTime    sim.Duration
	maxQueue     int
}

// claim reserves a buffer slot for a packet whose upstream transmit is
// ready at the given instant. It returns the (possibly credit-delayed)
// transmit start and the slot index to release once the packet has fully
// left this queue. Unbounded queues grant immediately with slot -1.
func (q *outPort) claim(ready sim.Time) (sim.Time, int) {
	if q.rel == nil {
		return ready, -1
	}
	best := 0
	for i := 1; i < len(q.rel); i++ {
		if q.rel[i] < q.rel[best] {
			best = i
		}
	}
	start := ready
	if free := q.rel[best]; free > ready {
		start = free
		q.creditStalls++
		q.stallTime += free.Sub(ready)
	}
	depth := 1
	for _, r := range q.rel {
		if r > start {
			depth++
		}
	}
	if depth > q.maxQueue {
		q.maxQueue = depth
	}
	q.rel[best] = timeNever
	return start, best
}

// release frees a claimed slot at the instant the packet finishes
// transmitting out of the queue.
func (q *outPort) release(slot int, at sim.Time) {
	if slot >= 0 {
		q.rel[slot] = at
	}
}

// swNode is one switch: its output ports, created lazily as routes first
// use them, keyed by next-hop switch (int(SwitchID)) or attached host
// (Switches() + int(NodeID)).
type swNode struct {
	outs map[int]*outPort
}

// SwitchStats aggregates one switch's output-port activity.
type SwitchStats struct {
	Ports     int // output ports traffic has used
	TxPackets uint64
	TxBytes   uint64

	// CreditStalls/StallTime: admissions that waited for a buffer slot in
	// one of this switch's output queues, and their total wait.
	CreditStalls uint64
	StallTime    sim.Duration

	// MaxQueue is the deepest output-queue occupancy observed (finite
	// buffers only; 0 when SwitchBufPkts is unbounded).
	MaxQueue int
}

// Network is the switched interconnect: hosts attached to a Topology of
// switches (a single crossbar by default).
type Network struct {
	eng    *sim.Engine
	params Params
	ports  []*port

	topo     Topology
	switches []*swNode

	// route/path/alt are per-Send scratch (the engine is single-threaded).
	route []SwitchID
	path  []*outPort
	alt   []SwitchID

	dropFilter DropFilter
	injectors  []PacketInjector

	// oracle (when installed) reports dead switches/links at route-pick
	// time; adaptive selects the least-queued candidate path instead of
	// the deterministic failover order.
	oracle   ElementOracle
	adaptive bool

	// firstReroute is the instant the first packet left its primary path
	// (valid when hasReroute).
	firstReroute sim.Time
	hasReroute   bool

	// delFree recycles Delivery objects so the per-packet hot path does
	// not allocate. Engine-local: the simulation is single-threaded.
	delFree []*Delivery

	// Counters for tests and reporting. Dropped is the total across all
	// causes; droppedBy splits it (see DroppedBy). With fault-injected
	// duplication, Delivered = Sent - Dropped + Duplicated.
	Sent       uint64
	Delivered  uint64
	Dropped    uint64
	BytesSent  uint64
	Duplicated uint64 // extra copies scheduled by injectors
	Corrupted  uint64 // packets marked corrupt in flight

	// Rerouted counts packets sent over a non-primary candidate path
	// (failover around a dead element, or an adaptive least-queued pick);
	// Unroutable counts packets dropped because every candidate path
	// crossed a dead element. Unroutable drops are included in Dropped
	// under DropCauseFault.
	Rerouted   uint64
	Unroutable uint64

	droppedBy [dropCauses]uint64

	// SerTime accumulates link occupancy spent serializing packets (every
	// hop's link); PropTime accumulates the propagation plus switch
	// latency of packets that were actually forwarded. Together they split
	// wire time into the bandwidth-bound and distance-bound parts.
	SerTime  sim.Duration
	PropTime sim.Duration
}

// New creates a network with n nodes attached to e, on the topology
// params selects (the single crossbar when unset).
func New(e *sim.Engine, n int, params Params) *Network {
	if n < 1 {
		panic("fabric: need at least one node")
	}
	nw := &Network{eng: e, params: params}
	switch params.RoutePolicy {
	case "", RouteFailover:
	case RouteAdaptive:
		nw.adaptive = true
	default:
		panic(fmt.Sprintf("fabric: unknown route policy %q", params.RoutePolicy))
	}
	for i := 0; i < n; i++ {
		p := &port{
			up:   sim.NewPipe(e),
			down: sim.NewPipe(e),
			in:   sim.NewQueue[*Delivery](e),
		}
		p.deliver = func() { nw.deliverNext(p) }
		nw.ports = append(nw.ports, p)
	}
	nw.topo = BuildTopology(params, n)
	nw.switches = make([]*swNode, nw.topo.Switches())
	for i := range nw.switches {
		nw.switches[i] = &swNode{outs: make(map[int]*outPort)}
	}
	return nw
}

// Params returns the network's physical parameters.
func (nw *Network) Params() Params { return nw.params }

// Nodes reports the number of attached nodes.
func (nw *Network) Nodes() int { return len(nw.ports) }

// Topology returns the switch graph packets route over.
func (nw *Network) Topology() Topology { return nw.topo }

// Switches reports the number of switches in the topology.
func (nw *Network) Switches() int { return len(nw.switches) }

// Inbox returns the delivery queue for node id. NIC receive engines block
// on it.
func (nw *Network) Inbox(id NodeID) *sim.Queue[*Delivery] {
	return nw.port(id).in
}

// SetDropFilter installs (or, with nil, removes) a deterministic loss
// filter.
func (nw *Network) SetDropFilter(f DropFilter) { nw.dropFilter = f }

// AddInjector appends an injector to the fault chain. Injectors run in
// installation order on every packet, before the drop filter and the
// random loss check.
func (nw *Network) AddInjector(inj PacketInjector) {
	nw.injectors = append(nw.injectors, inj)
}

// SetElementOracle installs (or, with nil, removes) the fabric-element
// liveness oracle consulted at route-pick time.
func (nw *Network) SetElementOracle(o ElementOracle) { nw.oracle = o }

// FirstRerouteAt reports the instant the first packet left its primary
// path, and whether any has.
func (nw *Network) FirstRerouteAt() (sim.Time, bool) {
	return nw.firstReroute, nw.hasReroute
}

// DroppedBy reports how many packets were dropped for the given cause.
func (nw *Network) DroppedBy(c DropCause) uint64 {
	if c < 0 || c >= dropCauses {
		return 0
	}
	return nw.droppedBy[c]
}

// LinkStats reports node id's link traffic totals.
func (nw *Network) LinkStats(id NodeID) LinkStats {
	p := nw.port(id)
	return LinkStats{
		TxPackets: p.txPkts, TxBytes: p.txBytes,
		RxPackets: p.rxPkts, RxBytes: p.rxBytes,
		RxCorrupt:     p.rxCorrupt,
		Dropped:       p.drops[DropCauseFault] + p.drops[DropCauseFilter] + p.drops[DropCauseRate],
		DroppedFault:  p.drops[DropCauseFault],
		DroppedFilter: p.drops[DropCauseFilter],
		DroppedRate:   p.drops[DropCauseRate],
	}
}

// SwitchStats reports switch s's aggregated output-port activity.
func (nw *Network) SwitchStats(s SwitchID) SwitchStats {
	if int(s) < 0 || int(s) >= len(nw.switches) {
		panic(fmt.Sprintf("fabric: no switch %d", s))
	}
	var st SwitchStats
	sw := nw.switches[s]
	st.Ports = len(sw.outs)
	for _, q := range sw.outs {
		st.TxPackets += q.txPkts
		st.TxBytes += q.txBytes
		st.CreditStalls += q.creditStalls
		st.StallTime += q.stallTime
		if q.maxQueue > st.MaxQueue {
			st.MaxQueue = q.maxQueue
		}
	}
	return st
}

// MaxQueueDepth reports the deepest switch output-queue occupancy seen
// anywhere in the fabric (0 with unbounded buffers). With finite buffers
// it can never exceed Params.SwitchBufPkts — backpressure, not buffering,
// absorbs congestion.
func (nw *Network) MaxQueueDepth() int {
	max := 0
	for _, sw := range nw.switches {
		for _, q := range sw.outs {
			if q.maxQueue > max {
				max = q.maxQueue
			}
		}
	}
	return max
}

// CreditStalls reports the total number of times any fabric stage waited
// for a downstream buffer slot.
func (nw *Network) CreditStalls() uint64 {
	var n uint64
	for _, sw := range nw.switches {
		for _, q := range sw.outs {
			n += q.creditStalls
		}
	}
	return n
}

func (nw *Network) port(id NodeID) *port {
	if int(id) < 0 || int(id) >= len(nw.ports) {
		panic(fmt.Sprintf("fabric: no node %d", id))
	}
	return nw.ports[id]
}

// switchOut returns (creating on first use) switch s's output port under
// the given key. Host-attachment ports transmit on the host's down pipe —
// the same serializer the crossbar used — so per-host delivery ordering
// and LinkStats are identical whatever graph sits upstream.
func (nw *Network) switchOut(s SwitchID, key int, pipe *sim.Pipe) *outPort {
	sw := nw.switches[s]
	q := sw.outs[key]
	if q == nil {
		if pipe == nil {
			pipe = sim.NewPipe(nw.eng)
		}
		q = &outPort{pipe: pipe}
		if b := nw.params.SwitchBufPkts; b > 0 {
			q.rel = make([]sim.Time, b)
		}
		sw.outs[key] = q
	}
	return q
}

// getDelivery draws a Delivery from the free list, allocating on miss.
func (nw *Network) getDelivery() *Delivery {
	if n := len(nw.delFree); n > 0 {
		d := nw.delFree[n-1]
		nw.delFree[n-1] = nil
		nw.delFree = nw.delFree[:n-1]
		d.recycled = false
		return d
	}
	return &Delivery{}
}

// Recycle returns a delivery popped from an inbox to the network's free
// list. The caller must not retain d (or read it again) afterwards.
// Shared deliveries (aliased payloads from fault-injected duplication)
// are cleared but never re-pooled: another copy holding the same payload
// may still be in flight, and re-pooling the wrapper would let a fresh
// packet alias it. Recycling the same delivery twice panics.
func (nw *Network) Recycle(d *Delivery) {
	if d.recycled {
		panic("fabric: delivery recycled twice")
	}
	shared := d.Shared
	*d = Delivery{recycled: true}
	if shared {
		return
	}
	nw.delFree = append(nw.delFree, d)
}

// Send injects a packet from src toward dst. It does not block the
// caller: link occupancy is modeled with pipes and the delivery is
// scheduled as an engine event. Send returns the instant the packet
// finishes serializing onto the source link (when the sending NIC's
// transmitter is free again); with finite switch buffers that instant
// includes any wait for a first-hop output credit, which is how fabric
// congestion backpressures the sending NIC.
//
// Loopback (src == dst) is NIC-local: the frame serializes once through
// the adapter's transmit path and is handed straight to its own receive
// path — no switch traversal, no link propagation, no PropTime. Loopback
// packets still run the injector chain and the loss checks.
func (nw *Network) Send(src, dst NodeID, size int, payload interface{}) sim.Time {
	sp := nw.port(src)
	ser := nw.params.SerializationTime(size)

	nw.Sent++
	nw.BytesSent += uint64(size)
	sp.txPkts++
	sp.txBytes += uint64(size)

	idx := nw.Sent - 1
	d := nw.getDelivery()
	d.Src, d.Dst, d.Size, d.Payload = src, dst, size, payload

	// Tracing never touches virtual time.
	if nw.eng.Tracing() {
		nw.eng.Trace(sim.TraceEvent{At: nw.eng.Now(), Comp: sim.TraceLink, ID: int32(src), Name: traceTx,
			Args: [6]int64{int64(dst), int64(size)}})
	}

	// Fault chain first: an injected drop models a deliberate outage and
	// pre-empts the (rng-consuming) random loss check. Dropped packets
	// still cost serialization time on the source link.
	var f PacketFault
	for _, inj := range nw.injectors {
		f = f.merge(inj.InjectPacket(idx, nw.eng.Now(), d))
	}
	switch {
	case f.Drop:
		return nw.drop(sp, d, DropCauseFault, ser)
	case nw.dropFilter != nil && nw.dropFilter(idx, *d):
		return nw.drop(sp, d, DropCauseFilter, ser)
	case nw.params.DropRate > 0 && nw.eng.Rand().Float64() < nw.params.DropRate:
		return nw.drop(sp, d, DropCauseRate, ser)
	}
	if f.Corrupt {
		d.Corrupted = true
		nw.Corrupted++
	}
	copies := 1
	if f.Duplicates > 0 {
		copies += f.Duplicates
		d.Shared = true
		nw.Duplicated += uint64(f.Duplicates)
	}
	if src == dst {
		return nw.sendLocal(sp, d, ser, f.Delay, copies)
	}
	return nw.sendRouted(sp, d, ser, f.Delay, copies)
}

// sendLocal is the loopback path: the frame occupies the node's transmit
// serializer once and arrives back on the same node at that instant
// (plus any injected delay). Delivery uses a dedicated event rather than
// the down-link FIFO, whose instants it would interleave with
// non-monotonically.
func (nw *Network) sendLocal(sp *port, d *Delivery, ser, delay sim.Duration, copies int) sim.Time {
	txDone := sp.up.Occupy(ser)
	nw.SerTime += ser
	at := txDone.Add(delay)
	for c := 0; c < copies; c++ {
		dc := d
		if c > 0 {
			dc = nw.getDelivery()
			*dc = *d
		}
		nw.eng.At(at, func() { nw.deliverNow(sp, dc) })
	}
	return txDone
}

// sendRouted carries a packet over its deterministic switch path with
// per-hop store-and-forward: each stage begins transmitting once the
// whole packet has arrived (link propagation plus switch delay behind
// it), once its own transmitter is idle, and — with finite buffers —
// once the downstream output queue grants a slot. A packet's slot in
// each queue is released only when it has fully left that queue, so a
// congested port stalls the whole upstream chain, emergently.
func (nw *Network) sendRouted(sp *port, d *Delivery, ser, delay sim.Duration, copies int) sim.Time {
	dp := nw.port(d.Dst)
	route := nw.pickRoute(d.Src, d.Dst)
	if route == nil {
		// Every candidate path crosses a dead element: the packet is lost
		// inside the fabric. The reliability layer sees it exactly like
		// any injected loss — retransmission, then escalation if the
		// outage outlasts the RTO ladder.
		nw.Unroutable++
		return nw.drop(sp, d, DropCauseFault, ser)
	}
	hops := len(route)

	// Resolve the output queue each switch transmits from: queue i
	// forwards toward route[i+1], the last one toward the host.
	path := nw.path[:0]
	for i, s := range route {
		if i+1 < hops {
			path = append(path, nw.switchOut(s, int(route[i+1]), nil))
		} else {
			path = append(path, nw.switchOut(s, len(nw.switches)+int(d.Dst), dp.down))
		}
	}
	nw.path = path

	// Stage 0: the host NIC transmits into the first switch, gated by
	// that switch's output credit. The injected delay lands at the first
	// switch, like the crossbar's.
	start, slot := path[0].claim(nw.eng.Now())
	txDone := sp.up.OccupyFrom(start, ser)
	nw.SerTime += ser
	atFirst := txDone.Add(nw.params.LinkLatency).Add(nw.params.SwitchLatency).Add(delay)

	prop := sim.Duration(hops+1)*nw.params.LinkLatency + sim.Duration(hops)*nw.params.SwitchLatency
	heldQ, heldSlot := path[0], slot
	for c := 0; c < copies; c++ {
		dc := d
		if c > 0 {
			dc = nw.getDelivery()
			*dc = *d
			// A duplicate materializes inside the first switch: it holds
			// no slot there (fault copies overcommit the buffer) and
			// queues behind the original on every outgoing link.
			heldQ, heldSlot = nil, -1
		}
		ready := atFirst
		for i := 0; i < hops; i++ {
			q := path[i]
			start := ready
			var nq *outPort
			nslot := -1
			if i+1 < hops {
				nq = path[i+1]
				start, nslot = nq.claim(ready)
			}
			out := q.pipe.OccupyFrom(start, ser)
			q.txPkts++
			q.txBytes += uint64(d.Size)
			nw.SerTime += ser
			if nw.eng.Tracing() {
				// The forward span covers the hop's serialization window
				// [out-ser, out), placed on the switch's own track.
				nw.eng.Trace(sim.TraceEvent{At: out.Add(-ser), Dur: ser, Comp: sim.TraceSwitch, ID: int32(route[i]),
					Name: traceFwd, Args: [6]int64{int64(d.Dst), int64(d.Size), int64(i + 1), int64(hops)}})
			}
			if heldQ != nil {
				heldQ.release(heldSlot, out)
			}
			heldQ, heldSlot = nq, nslot
			ready = out.Add(nw.params.LinkLatency)
			if i+1 < hops {
				ready = ready.Add(nw.params.SwitchLatency)
			}
		}
		nw.PropTime += prop
		nw.enqueue(dp, dc, ready)
	}
	return txDone
}

// pickRoute resolves the switch path a packet takes right now, applying
// the route policy. With no oracle and the default failover policy this
// is exactly the topology's primary route — the pre-multipath behavior,
// byte for byte. It returns nil when every candidate path crosses a dead
// element. The returned slice is nw.route scratch.
func (nw *Network) pickRoute(src, dst NodeID) []SwitchID {
	if nw.oracle == nil && !nw.adaptive {
		nw.route = nw.topo.Route(nw.route[:0], src, dst)
		return nw.route
	}
	now := nw.eng.Now()
	n := nw.topo.AltRoutes(src, dst)
	if !nw.adaptive {
		for k := 0; k < n; k++ {
			nw.route = nw.topo.AltRoute(nw.route[:0], src, dst, k)
			if nw.pathAlive(nw.route, now) {
				if k > 0 {
					nw.noteReroute(now)
				}
				return nw.route
			}
		}
		return nil
	}
	best := -1
	var bestCost sim.Duration
	for k := 0; k < n; k++ {
		nw.alt = nw.topo.AltRoute(nw.alt[:0], src, dst, k)
		if !nw.pathAlive(nw.alt, now) {
			continue
		}
		if c := nw.pathCost(nw.alt, dst, now); best < 0 || c < bestCost {
			best, bestCost = k, c
		}
	}
	if best < 0 {
		return nil
	}
	if best > 0 {
		nw.noteReroute(now)
	}
	nw.route = nw.topo.AltRoute(nw.route[:0], src, dst, best)
	return nw.route
}

// pathAlive reports whether every switch and inter-switch link on the
// route is up according to the oracle (trivially true without one).
func (nw *Network) pathAlive(route []SwitchID, now sim.Time) bool {
	if nw.oracle == nil {
		return true
	}
	for i, s := range route {
		if nw.oracle.SwitchDown(int(s), now) {
			return false
		}
		if i > 0 && nw.oracle.SwitchLinkDown(int(route[i-1]), int(s), now) {
			return false
		}
	}
	return true
}

// pathCost is the adaptive policy's congestion estimate for a candidate
// path: the pending transmit work on each hop's output port (serializer
// busy time past now plus the residual occupancy of every claimed buffer
// slot). Ports no traffic has used yet cost nothing; the map is read
// without instantiating them, so probing a path leaves no trace.
func (nw *Network) pathCost(route []SwitchID, dst NodeID, now sim.Time) sim.Duration {
	var cost sim.Duration
	hops := len(route)
	for i, s := range route {
		key := len(nw.switches) + int(dst)
		if i+1 < hops {
			key = int(route[i+1])
		}
		q := nw.switches[s].outs[key]
		if q == nil {
			continue
		}
		if free := q.pipe.FreeAt(); free > now {
			cost += free.Sub(now)
		}
		for _, r := range q.rel {
			if r > now && r != timeNever {
				cost += r.Sub(now)
			}
		}
	}
	return cost
}

// noteReroute accounts one packet leaving its primary path.
func (nw *Network) noteReroute(now sim.Time) {
	nw.Rerouted++
	if !nw.hasReroute {
		nw.hasReroute = true
		nw.firstReroute = now
	}
}

// LeakedCredits reports switch buffer slots still holding the in-flight
// claim sentinel. Send resolves every claim and release synchronously
// within one call, so a nonzero count between Sends means a claimed slot
// was never released — a credit leak that would throttle the port
// forever.
func (nw *Network) LeakedCredits() int {
	n := 0
	for _, sw := range nw.switches {
		for _, q := range sw.outs {
			for _, r := range q.rel {
				if r == timeNever {
					n++
				}
			}
		}
	}
	return n
}

// deliverNow hands one packet to a node's inbox with the fabric's
// delivery accounting.
func (nw *Network) deliverNow(p *port, d *Delivery) {
	nw.Delivered++
	p.rxPkts++
	p.rxBytes += uint64(d.Size)
	if nw.eng.Tracing() {
		nw.eng.Trace(sim.TraceEvent{At: nw.eng.Now(), Comp: sim.TraceLink, ID: int32(d.Dst), Name: traceRx,
			Args: [6]int64{int64(d.Src), int64(d.Size)}})
	}
	if d.Corrupted {
		p.rxCorrupt++
	}
	p.in.Push(d)
}

// enqueue appends the packet to dst's in-flight FIFO and arms the port's
// delivery event if it is idle. Per-port delivery instants are monotonic
// (the down link's Pipe hands out non-decreasing completion times), so a
// FIFO walked by one standing event per port delivers every packet at
// exactly the instant a per-packet event would — but an incast burst
// keeps O(ports) events in the heap instead of O(in-flight packets),
// so sifts stay shallow, and the preallocated per-port callback replaces
// a fresh closure per packet.
func (nw *Network) enqueue(dp *port, d *Delivery, at sim.Time) {
	if n := len(dp.wire); n > dp.wireHead && at < dp.wire[n-1].at {
		panic("fabric: per-port delivery instants not monotonic")
	}
	dp.wire = append(dp.wire, flight{d, at})
	if !dp.armed {
		dp.armed = true
		nw.eng.At(at, dp.deliver)
	}
}

// deliverNext fires at the head packet's delivery instant: it hands the
// packet to the inbox and re-arms for the next one. The next event is
// scheduled before the inbox push so that a same-instant follower keeps
// its place ahead of any receiver wake the push schedules — the dispatch
// order per-packet events produced.
func (nw *Network) deliverNext(dp *port) {
	f := dp.wire[dp.wireHead]
	dp.wire[dp.wireHead] = flight{}
	dp.wireHead++
	if dp.wireHead == len(dp.wire) {
		dp.wire = dp.wire[:0]
		dp.wireHead = 0
		dp.armed = false
	} else {
		nw.eng.At(dp.wire[dp.wireHead].at, dp.deliver)
	}
	nw.deliverNow(dp, f.d)
}

// drop records a dropped packet under its cause and recycles the
// delivery. The source link still serializes the doomed frame, exactly
// as the wire would.
func (nw *Network) drop(sp *port, d *Delivery, cause DropCause, ser sim.Duration) sim.Time {
	txDone := sp.up.Occupy(ser)
	nw.SerTime += ser
	nw.Dropped++
	nw.droppedBy[cause]++
	sp.drops[cause]++
	nw.Recycle(d)
	return txDone
}
