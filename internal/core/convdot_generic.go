//go:build !amd64 || purego

package core

// useAVX is false: this build has only the pure-Go kernel.
var useAVX = false

// convRow convolves one row with the pure-Go kernel.
func convRow(out []complex128, h2 []float64, x, ph []complex128, lanes int) {
	convDot(out, h2, x, ph, lanes, 0)
}
