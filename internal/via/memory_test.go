package via

import (
	"runtime"
	"testing"

	"vibe/internal/provider"
)

// Registration validates the range without touching storage, so
// registering and deregistering a large buffer nothing has written costs
// no host memory; the bytes appear, zeroed, when a data path resolves it.
func TestRegisterDeregisterDoesNotBackBuffer(t *testing.T) {
	const size = 32 << 20
	sys := NewSystem(provider.CLAN(), 1, 1)
	sys.Go(0, "reg", func(ctx *Ctx) {
		nic := ctx.OpenNic()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf := ctx.Malloc(size)
		h, err := nic.RegisterMem(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		if err := nic.DeregisterMem(ctx, h); err != nil {
			t.Error(err)
			return
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("register+deregister of %d MiB allocated %d bytes, want < 64 KiB", size>>20, got)
		}

		data, err := ctx.Host.AS.Resolve(buf.Addr(), size)
		if err != nil {
			t.Error(err)
			return
		}
		if len(data) != size {
			t.Errorf("Resolve returned %d bytes, want %d", len(data), size)
		}
		for i, v := range data {
			if v != 0 {
				t.Errorf("byte %d = %#x, want 0", i, v)
				return
			}
		}
	})
	sys.MustRun()
}
