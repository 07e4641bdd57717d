//go:build !purego

package core

// useAVX selects the AVX lane-pair kernel. It is fixed when the package
// initialises, from CPU features alone; tests flip it to compare the two
// kernels bit for bit.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves YMM state
// across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then XCR0 bits
// 1 and 2). Every instruction convDotAVX uses is AVX1.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// convDotAVX is convDot for lanes [0, 2·pairs) of one row, two lanes per
// YMM register, with convDot's per-lane operation order and no fused
// multiply-add, so its output is bit-identical. h2 must hold 2·taps·lanes
// values, x taps·lanes, ph and out at least 2·pairs.
//
//go:noescape
func convDotAVX(out *complex128, h2 *float64, x *complex128, ph *complex128, pairs, taps, lanes int)

// convRow convolves one row: lane pairs through the AVX kernel when the
// CPU has it, an odd last lane (or every lane without AVX) through
// convDot.
func convRow(out []complex128, h2 []float64, x, ph []complex128, lanes int) {
	lo := 0
	if useAVX && lanes >= 2 {
		lo = lanes &^ 1
		taps := len(x) / lanes
		// The assembly indexes without checks; prove its extents here.
		_, _, _ = out[lo-1], ph[lo-1], h2[2*taps*lanes-1]
		convDotAVX(&out[0], &h2[0], &x[0], &ph[0], lo/2, taps, lanes)
	}
	convDot(out, h2, x, ph, lanes, lo)
}
