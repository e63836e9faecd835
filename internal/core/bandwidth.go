package core

import (
	"fmt"

	"vibe/internal/sim"
	"vibe/internal/via"
)

// bandwidth implements the suite's streaming measurement: the sender
// pushes cfg.BWMessages back-to-back messages of the given size and stops
// its timer when the receiver's final acknowledgment message arrives, per
// §3.2.1. XferOpts vary the same components as the latency tests; Window
// additionally bounds the sender pipeline (BWpipe).
func bandwidth(cfg Config, size int, o XferOpts) (XferResult, error) {
	o = o.normalized()
	sys := via.NewSystemProc(cfg.Model, 2, cfg.Seed, cfg.ProcModel)
	defer sys.Close()
	cfg.instrument(sys)
	res := XferResult{Size: size}
	warm := cfg.Warmup
	total := cfg.BWMessages

	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sys.Eng.Stop()
	}

	var x rdmaXchg
	var receiverReady bool

	sys.Go(0, "bw-sender", func(ctx *via.Ctx) {
		// The sender's receive pool holds only the tiny final ack.
		ep, err := setup(ctx, cfg, o, size, 4, false, true, 1)
		if err != nil {
			fail(err)
			return
		}
		if err := ep.postRecv(ep.recv[0], 4); err != nil {
			fail(err)
			return
		}
		x.cli = nil // sender's pool is never an RDMA target here
		for !receiverReady {
			ctx.Sleep(10 * sim.Microsecond)
		}

		sendOne := func(i int, drain bool) error {
			bi := o.pickBuf(i)
			if err := ep.postSend(ep.send[bi], size, bi, x.srv); err != nil {
				return err
			}
			if !drain {
				return ep.waitSend()
			}
			return nil
		}
		// Warmup primes NIC caches outside the timed window.
		for i := 0; i < warm; i++ {
			if err := sendOne(i, false); err != nil {
				fail(err)
				return
			}
		}

		t0 := ctx.Now()
		meter := ctx.Host.CPU.StartMeter()
		outstanding := 0
		for i := 0; i < total; i++ {
			if err := sendOne(warm+i, true); err != nil {
				fail(err)
				return
			}
			outstanding++
			// Opportunistically retire completed sends.
			for {
				d, ok := ep.vi.SendDone(ctx)
				if !ok {
					break
				}
				st := d.Status
				ep.descs.put(d)
				if st != via.StatusSuccess {
					fail(fmt.Errorf("vibe bw: send completed with %v", st))
					return
				}
				outstanding--
			}
			for o.Window > 0 && outstanding >= o.Window {
				if err := ep.waitSend(); err != nil {
					fail(err)
					return
				}
				outstanding--
			}
		}
		// The clock stops when the receiver's ack lands (the paper's
		// protocol), which covers all in-flight messages.
		if err := ep.waitRecv(); err != nil {
			fail(fmt.Errorf("vibe bw: final ack: %w", err))
			return
		}
		elapsed := ctx.Now().Sub(t0)
		if elapsed > 0 {
			res.MBps = float64(size) * float64(total) / elapsed.Seconds() / 1e6
		}
		res.CPUUtil = meter.Utilization()
	})

	sys.Go(1, "bw-receiver", func(ctx *via.Ctx) {
		ep, err := setup(ctx, cfg, o, 4, size, false, false, 0)
		if err != nil {
			fail(err)
			return
		}
		// Pre-post every receive, as the paper's test does.
		for i := 0; i < warm+total; i++ {
			if err := ep.postRecv(ep.recv[o.pickBuf(i)], size); err != nil {
				fail(err)
				return
			}
		}
		if o.RDMA {
			x.srv = addressSegments(ep.recv)
		}
		receiverReady = true
		for i := 0; i < warm+total; i++ {
			if err := ep.waitRecv(); err != nil {
				fail(fmt.Errorf("vibe bw: recv %d: %w", i, err))
				return
			}
		}
		// Final acknowledgment message back to the sender.
		if err := ep.postSend(ep.send[0], 4, 0, nil); err != nil {
			fail(err)
			return
		}
		if err := ep.waitSend(); err != nil {
			fail(err)
		}
	})

	if err := sys.Run(); err != nil {
		return res, err
	}
	return res, runErr
}
