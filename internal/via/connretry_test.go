package via

import (
	"errors"
	"testing"

	"vibe/internal/fabric"
	"vibe/internal/provider"
)

// A connect request or its answer can be lost on the wire. The client
// repeats the request until an answer arrives; the server answers a repeat
// of a request it already handled with the same answer, and never queues
// it as a second request.
func TestConnectHandshakeSurvivesLoss(t *testing.T) {
	for _, c := range []struct {
		name   string
		lose   pktKind
		reject bool
	}{
		{"request lost", pktConnReq, false},
		{"accept lost", pktConnAccept, false},
		{"reject lost", pktConnReject, true},
	} {
		for _, pm := range procModels {
			t.Run(c.name+"/"+pm.name, func(t *testing.T) {
				var connected, served bool
				sys := NewSystemProc(provider.CLAN(), 2, 1, pm.pm)
				lost := 0
				sys.Net.SetDropFilter(func(_ uint64, d fabric.Delivery) bool {
					if p := d.Payload.(*wirePacket); p.kind == c.lose && lost == 0 {
						lost++
						return true
					}
					return false
				})
				attrs := ViAttributes{Reliability: ReliableDelivery}
				sys.Go(0, "client", func(ctx *Ctx) {
					nic := ctx.OpenNic()
					vi, _ := nic.CreateVi(ctx, attrs, nil, nil)
					err := vi.ConnectRequest(ctx, 1, "svc", tmo)
					if c.reject {
						if !errors.Is(err, ErrRejected) {
							t.Errorf("ConnectRequest = %v, want ErrRejected", err)
						}
						return
					}
					if err != nil {
						t.Errorf("ConnectRequest: %v", err)
						return
					}
					connected = true
					buf := ctx.Malloc(64)
					h, _ := nic.RegisterMem(ctx, buf)
					if err := vi.PostSend(ctx, SimpleSend(buf, h, 64)); err != nil {
						t.Error(err)
						return
					}
					if d, err := vi.SendWaitPoll(ctx); err != nil || d.Status != StatusSuccess {
						t.Errorf("send: %v %v", err, d)
					}
				})
				sys.Go(1, "server", func(ctx *Ctx) {
					nic := ctx.OpenNic()
					vi, _ := nic.CreateVi(ctx, attrs, nil, nil)
					req, err := nic.ConnectWait(ctx, "svc", tmo)
					if err != nil {
						t.Errorf("ConnectWait: %v", err)
						return
					}
					if c.reject {
						req.Reject(ctx)
					} else {
						buf := ctx.Malloc(64)
						h, _ := nic.RegisterMem(ctx, buf)
						vi.PostRecv(ctx, SimpleRecv(buf, h, 64))
						if err := req.Accept(ctx, vi); err != nil {
							t.Errorf("Accept: %v", err)
							return
						}
						if d, err := vi.RecvWaitPoll(ctx); err != nil || d.Status != StatusSuccess {
							t.Errorf("recv: %v %v", err, d)
							return
						}
					}
					// The client's repeats were answered, not queued.
					if _, err := nic.ConnectWait(ctx, "svc", connRetry*3); !errors.Is(err, ErrTimeout) {
						t.Errorf("second ConnectWait = %v, want a timeout", err)
					}
					served = true
				})
				if err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				if lost != 1 {
					t.Errorf("dropped %d %v packets, want 1", lost, c.lose)
				}
				if connected == c.reject || !served {
					t.Errorf("connected %v, served %v", connected, served)
				}
			})
		}
	}
}

// Without loss the client sends its connect request once: the retry
// interval is far above a handshake's round trip.
func TestConnectHandshakeSendsOneRequestWithoutLoss(t *testing.T) {
	requests := 0
	env := newPair(t, provider.MVIA(), ViAttributes{},
		func(ctx *Ctx, vi *Vi, nic *Nic) {},
		func(ctx *Ctx, vi *Vi, nic *Nic) {})
	env.sys.Net.SetDropFilter(func(_ uint64, d fabric.Delivery) bool {
		if d.Payload.(*wirePacket).kind == pktConnReq {
			requests++
		}
		return false
	})
	env.run()
	if requests != 1 {
		t.Errorf("%d connect requests sent, want 1", requests)
	}
}
