package via

import (
	"fmt"

	"vibe/internal/vmem"
)

// Op selects a descriptor's operation.
type Op int

const (
	// OpSend transfers the gathered data segments to the peer's next
	// posted receive descriptor.
	OpSend Op = iota
	// OpRdmaWrite writes the gathered data segments to the remote address
	// in the descriptor's address segment. It consumes no receive
	// descriptor at the target unless immediate data is attached.
	OpRdmaWrite
	// OpRdmaRead reads from the remote address segment into the local
	// data segments. Requires a reliable connection and provider support.
	OpRdmaRead
)

func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRdmaWrite:
		return "rdma-write"
	case OpRdmaRead:
		return "rdma-read"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// DataSegment is one element of a descriptor's gather/scatter list: a
// virtual address, its covering memory handle, and a length.
type DataSegment struct {
	Addr   vmem.Addr
	Handle MemHandle
	Length int
}

// AddressSegment names the remote target of an RDMA operation.
type AddressSegment struct {
	Addr   vmem.Addr
	Handle MemHandle
}

// Descriptor is a VIA work request: one control segment (Op, immediate
// data, and after completion Status/Length), an optional address segment
// for RDMA, and zero or more data segments. Descriptors are reusable:
// posting resets the completion fields. A posted descriptor belongs to
// the provider until its work queue dequeues it (SendDone/RecvDone, the
// Wait family, or a receive-notify upcall); from then on the application
// may change it and post it again at once, along with its Segs and
// Remote storage.
type Descriptor struct {
	Op     Op
	Segs   []DataSegment
	Remote *AddressSegment

	// ImmediateData travels in the control segment and is delivered to
	// the consumed receive descriptor when HasImmediate is set.
	ImmediateData uint32
	HasImmediate  bool

	// Completion fields, owned by the provider once posted.
	Status Status
	// Length is the number of bytes transferred (for receives, the size
	// of the incoming message).
	Length int
	// Immediate carries received immediate data on completed receives.
	Immediate    uint32
	GotImmediate bool

	done bool
	vi   *Vi
	span *msgSpan // non-nil while this message's lifecycle is being sampled
}

// TotalLength sums the descriptor's data segment lengths.
func (d *Descriptor) TotalLength() int {
	n := 0
	for _, s := range d.Segs {
		n += s.Length
	}
	return n
}

// Done reports whether the descriptor has completed since it was last
// posted. Prefer the work-queue Done/Wait calls, which also dequeue.
func (d *Descriptor) Done() bool { return d.done }

func (d *Descriptor) String() string {
	return fmt.Sprintf("desc{%v %dB %v}", d.Op, d.TotalLength(), d.Status)
}

// SimpleSend builds a one-segment send descriptor covering buf[0:n].
func SimpleSend(buf *vmem.Buffer, h MemHandle, n int) *Descriptor {
	return &Descriptor{Op: OpSend, Segs: []DataSegment{{Addr: buf.Addr(), Handle: h, Length: n}}}
}

// SimpleRecv builds a one-segment receive descriptor covering buf[0:n].
func SimpleRecv(buf *vmem.Buffer, h MemHandle, n int) *Descriptor {
	return &Descriptor{Segs: []DataSegment{{Addr: buf.Addr(), Handle: h, Length: n}}}
}
