package via

import (
	"testing"

	"vibe/internal/provider"
)

// TestDescriptorRepostAfterWait pins descriptor ownership: once SendWait
// or RecvWait has dequeued a descriptor it belongs to the application,
// which may repost it straight away. Both sides run a ping-pong on one
// send and one receive descriptor each, reposted every round with a new
// length, payload and immediate-data setting, and every completion must
// report this round's values — never a stale length, status or
// immediate from the previous use. M-VIA exercises the delayed
// (host-copy) receive completion, the reliable levels the acknowledgment
// path.
func TestDescriptorRepostAfterWait(t *testing.T) {
	const rounds, bufSize = 12, 2048
	size := func(i int) int { return 100 + 37*i }
	models := []*provider.Model{provider.CLAN(), provider.MVIA()}
	levels := []ReliabilityLevel{Unreliable, ReliableDelivery, ReliableReception}
	for _, m := range models {
		for _, lv := range levels {
			if !m.Supports(uint8(lv)) {
				continue
			}
			for _, pm := range []ProcModel{ModelActor, ModelGoroutine} {
				name := m.Name + "/" + lv.String()
				if pm == ModelGoroutine {
					name += "/goroutine"
				}
				t.Run(name, func(t *testing.T) {
					var serverRounds int
					env := newPairProc(t, pm, m, ViAttributes{Reliability: lv},
						func(ctx *Ctx, vi *Vi, nic *Nic) {
							sbuf, rbuf := ctx.Malloc(bufSize), ctx.Malloc(bufSize)
							sh, _ := nic.RegisterMem(ctx, sbuf)
							rh, _ := nic.RegisterMem(ctx, rbuf)
							sd, rd := SimpleSend(sbuf, sh, 0), SimpleRecv(rbuf, rh, bufSize)
							for i := 0; i < rounds; i++ {
								if err := vi.PostRecv(ctx, rd); err != nil {
									t.Errorf("round %d: PostRecv: %v", i, err)
									return
								}
								sbuf.FillPattern(byte(i))
								sd.Segs[0].Length = size(i)
								sd.HasImmediate, sd.ImmediateData = i%2 == 0, uint32(i)
								if err := vi.PostSend(ctx, sd); err != nil {
									t.Errorf("round %d: PostSend: %v", i, err)
									return
								}
								if d, err := vi.SendWait(ctx, tmo); err != nil || d != sd || d.Status != StatusSuccess || d.Length != size(i) {
									t.Errorf("round %d: send completion %v %v (same descriptor %v)", i, err, d, d == sd)
									return
								}
								// The echo comes back in the same descriptor.
								if d, err := vi.RecvWait(ctx, tmo); err != nil || d != rd || d.Status != StatusSuccess || d.Length != 4 {
									t.Errorf("round %d: echo completion %v %v", i, err, d)
									return
								}
							}
						},
						func(ctx *Ctx, vi *Vi, nic *Nic) {
							rbuf, sbuf := ctx.Malloc(bufSize), ctx.Malloc(4)
							rh, _ := nic.RegisterMem(ctx, rbuf)
							sh, _ := nic.RegisterMem(ctx, sbuf)
							rd, echo := SimpleRecv(rbuf, rh, bufSize), SimpleSend(sbuf, sh, 4)
							if err := vi.PostRecv(ctx, rd); err != nil {
								t.Errorf("PostRecv: %v", err)
								return
							}
							for i := 0; i < rounds; i++ {
								d, err := vi.RecvWait(ctx, tmo)
								if err != nil || d != rd {
									t.Errorf("round %d: RecvWait %v %v", i, err, d)
									return
								}
								if d.Status != StatusSuccess || d.Length != size(i) {
									t.Errorf("round %d: recv %v len=%d, want len %d", i, d.Status, d.Length, size(i))
								}
								if d.GotImmediate != (i%2 == 0) || (d.GotImmediate && d.Immediate != uint32(i)) {
									t.Errorf("round %d: immediate got=%v value=%d", i, d.GotImmediate, d.Immediate)
								}
								if err := rbuf.CheckPattern(byte(i), size(i)); err != nil {
									t.Errorf("round %d: payload: %v", i, err)
								}
								if i+1 < rounds {
									// Repost before answering, so the next
									// message finds it.
									if err := vi.PostRecv(ctx, rd); err != nil {
										t.Errorf("round %d: repost: %v", i, err)
										return
									}
								}
								if err := vi.PostSend(ctx, echo); err != nil {
									t.Errorf("round %d: echo PostSend: %v", i, err)
									return
								}
								if d, err := vi.SendWait(ctx, tmo); err != nil || d != echo || d.Status != StatusSuccess {
									t.Errorf("round %d: echo send %v %v", i, err, d)
									return
								}
								serverRounds++
							}
						})
					env.run()
					if serverRounds != rounds {
						t.Fatalf("server completed %d of %d rounds", serverRounds, rounds)
					}
				})
			}
		}
	}
}
