package via

import (
	"fmt"
	"testing"

	"vibe/internal/provider"
)

// BenchmarkRegisterDeregister registers and deregisters one buffer per
// iteration, at the small and large ends of Figures 1 and 2.
func BenchmarkRegisterDeregister(b *testing.B) {
	for _, size := range []int{4 << 10, 32 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			sys := NewSystem(provider.BVIA(), 1, 1)
			sys.Go(0, "reg", func(ctx *Ctx) {
				nic := ctx.OpenNic()
				buf := ctx.Malloc(size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h, err := nic.RegisterMem(ctx, buf)
					if err == nil {
						err = nic.DeregisterMem(ctx, h)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
			})
			if err := sys.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
