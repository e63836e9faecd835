package nicsim

import (
	"fmt"

	"vibe/internal/sim"
)

// Pending is an unacknowledged wire packet held for possible
// retransmission.
type Pending struct {
	Seq     uint64
	SentAt  sim.Time
	Retries int
	Item    interface{}
}

// Window is the sender half of the go-back-N reliability protocol the
// reliable VIA modes run between NICs: packets carry consecutive sequence
// numbers per connection, the receiver returns cumulative acks, and
// anything unacked past a timeout is retransmitted in order.
//
// Records are stored by value in a FIFO that rewinds whenever the window
// drains and compacts when it never does, so a steady Add/Ack cycle
// allocates nothing. Pointers and slices the window hands out alias that
// storage and are valid only until the next Add.
type Window struct {
	nextSeq uint64
	pending sim.FIFO[Pending] // ordered by Seq

	// Counters.
	Acked       uint64
	Retransmits uint64
}

// NextSeq returns the sequence number the next Add will assign.
func (w *Window) NextSeq() uint64 { return w.nextSeq }

// Add registers a newly transmitted packet and returns its assigned
// sequence number. Item must not need boxing to stay allocation-free: a
// pointer (or nil) is stored as is.
func (w *Window) Add(item interface{}, at sim.Time) uint64 {
	seq := w.nextSeq
	w.nextSeq++
	w.pending.Push(Pending{Seq: seq, SentAt: at, Item: item})
	return seq
}

// Ack processes a cumulative acknowledgment: every pending packet with
// Seq <= cumSeq is removed and returned, in sequence order. The returned
// slice aliases the window's storage and stays valid until the next Add.
func (w *Window) Ack(cumSeq uint64) []Pending {
	items := w.pending.Items()
	k := 0
	for k < len(items) && items[k].Seq <= cumSeq {
		k++
	}
	w.Acked += uint64(k)
	return w.pending.Drop(k)
}

// Outstanding reports the number of unacked packets.
func (w *Window) Outstanding() int { return w.pending.Len() }

// Oldest returns the longest-unacked packet, or nil. The record may be
// updated in place until the next Add.
func (w *Window) Oldest() *Pending {
	if w.pending.Len() == 0 {
		return nil
	}
	return &w.pending.Items()[0]
}

// Unacked returns a copy of every pending packet in sequence order. The
// copy is detached from the window: writing to it, or holding it across
// Ack and Add, cannot touch window state. Hot paths that retransmit on
// every timeout use ForEachUnacked to avoid the copy.
func (w *Window) Unacked() []Pending {
	return append([]Pending(nil), w.pending.Items()...)
}

// ForEachUnacked calls fn for each pending packet in sequence order until
// fn returns false. It is the allocation-free iteration the retransmission
// paths use; fn may update the record it is given (SentAt, Retries) but
// must not call methods that add or remove records.
func (w *Window) ForEachUnacked(fn func(*Pending) bool) {
	items := w.pending.Items()
	for i := range items {
		if !fn(&items[i]) {
			return
		}
	}
}

// MarkResent stamps every pending packet as retransmitted at the given
// instant and bumps retry counts. It returns the highest retry count, so
// the caller can give up after a limit.
func (w *Window) MarkResent(at sim.Time) int {
	items := w.pending.Items()
	w.Retransmits += uint64(len(items))
	max := 0
	for i := range items {
		p := &items[i]
		p.SentAt = at
		p.Retries++
		if p.Retries > max {
			max = p.Retries
		}
	}
	return max
}

// Reset drops all pending state (connection teardown).
func (w *Window) Reset() { w.pending = sim.FIFO[Pending]{} }

func (w *Window) String() string {
	return fmt.Sprintf("window{next=%d outstanding=%d}", w.nextSeq, w.pending.Len())
}

// RecvSeq is the receiver half of the reliability protocol: it accepts
// packets strictly in order and produces cumulative acks.
type RecvSeq struct {
	expected uint64

	Duplicates uint64
	Gaps       uint64
}

// Accept classifies an arriving sequence number. accept=true means the
// packet is new and in order and should be processed; dup=true means it
// was already processed (the ack was probably lost) and should be re-acked
// but not processed. Both false means a gap: drop and wait for
// retransmission.
func (r *RecvSeq) Accept(seq uint64) (accept, dup bool) {
	switch {
	case seq == r.expected:
		r.expected++
		return true, false
	case seq < r.expected:
		r.Duplicates++
		return false, true
	default:
		r.Gaps++
		return false, false
	}
}

// CumAck returns the cumulative acknowledgment to send: the highest
// in-order sequence received. ok is false if nothing has been received.
func (r *RecvSeq) CumAck() (seq uint64, ok bool) {
	if r.expected == 0 {
		return 0, false
	}
	return r.expected - 1, true
}

// Expected returns the next sequence number the receiver will accept.
func (r *RecvSeq) Expected() uint64 { return r.expected }
