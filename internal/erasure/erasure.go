// Package erasure is a systematic Reed–Solomon k-of-n erasure codec
// over GF(2^8), the redundancy layer of the coded all-to-all exchange
// (internal/core WithCoding). A Code splits a payload into k
// equal-length data shares and derives m parity shares; any k of the
// k+m shares reconstruct every data share byte-for-byte.
//
// The codec operates on raw bytes. For the SOI exchange the shares are
// the byte images of []complex128 chunks (ComplexToBytes/BytesToComplex
// move the exact Float64bits patterns), so a reconstructed chunk is
// bit-identical to the lost original — the degraded spectrum equals the
// fault-free spectrum exactly, not approximately. This is why the code
// works over GF(2^8) rather than the reals: real-field erasure codes
// (Vandermonde over float64) would reconstruct only up to rounding.
//
// Construction: the generator is the k×k identity stacked on an m×k
// Cauchy matrix with disjoint index sets, so the code is MDS — every
// k×k submatrix of the generator is invertible, hence any k shares
// decode (the property the recovery protocol relies on when it pools
// whatever shares survived a rank death).
package erasure

import (
	"errors"
	"fmt"
	"math"
)

// Typed failures, matchable with errors.Is.
var (
	// ErrParams reports an impossible code shape (k < 1, m < 0, or
	// k+m > 256 — GF(2^8) has only 256 distinct evaluation points).
	ErrParams = errors.New("erasure: invalid code parameters")
	// ErrShardCount reports a share slice whose length is not k (Encode
	// data), m (Encode parity) or k+m (Reconstruct).
	ErrShardCount = errors.New("erasure: wrong number of shares")
	// ErrShardSize reports shares of inconsistent byte lengths.
	ErrShardSize = errors.New("erasure: share length mismatch")
	// ErrTooFewShares reports a reconstruction attempt with fewer than k
	// surviving shares — the loss exceeded the parity budget.
	ErrTooFewShares = errors.New("erasure: fewer than k shares survive")
)

// GF(2^8) arithmetic with the AES-adjacent primitive polynomial 0x11d
// (x^8+x^4+x^3+x^2+1), via log/exp tables. exp is doubled so products
// of logs never need a modulo.
var (
	expTbl [510]byte
	logTbl [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTbl[i] = byte(x)
		expTbl[i+255] = byte(x)
		logTbl[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
}

// gmul multiplies in GF(2^8).
func gmul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[int(logTbl[a])+int(logTbl[b])]
}

// ginv inverts a nonzero element.
func ginv(a byte) byte {
	if a == 0 {
		panic("erasure: inverse of zero")
	}
	return expTbl[255-int(logTbl[a])]
}

// Code is a systematic (k+m, k) Reed–Solomon code. It is immutable and
// safe for concurrent use.
type Code struct {
	k, m int
	// gen holds the m parity rows of the generator (the top k rows are
	// the identity and are never materialized): parity share i is
	// Σ_j gen[i][j]·data[j] in GF(2^8), applied byte-wise.
	gen [][]byte
}

// New builds a code with k data shares and m parity shares. k must be
// at least 1, m at least 0, and k+m at most 256.
func New(k, m int) (*Code, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrParams, k, m)
	}
	c := &Code{k: k, m: m, gen: make([][]byte, m)}
	// Cauchy rows: gen[i][j] = 1/(x_i ⊕ y_j) with x_i = k+i, y_j = j.
	// The index sets are disjoint, so every entry is defined, and the
	// stacked [I; C] generator is MDS.
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			row[j] = ginv(byte(k+i) ^ byte(j))
		}
		c.gen[i] = row
	}
	return c, nil
}

// K returns the data share count.
func (c *Code) K() int { return c.k }

// M returns the parity share count.
func (c *Code) M() int { return c.m }

// Encode fills the m parity shares from the k data shares. All data
// shares must have equal length; each parity slice must be pre-allocated
// to that same length (they are overwritten, not appended).
func (c *Code) Encode(data, parity [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("%w: %d data shares, code has k=%d", ErrShardCount, len(data), c.k)
	}
	if len(parity) != c.m {
		return fmt.Errorf("%w: %d parity shares, code has m=%d", ErrShardCount, len(parity), c.m)
	}
	size := -1
	for _, d := range data {
		if size == -1 {
			size = len(d)
		} else if len(d) != size {
			return fmt.Errorf("%w: data shares of %d and %d bytes", ErrShardSize, size, len(d))
		}
	}
	for _, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity share of %d bytes, data shares of %d", ErrShardSize, len(p), size)
		}
	}
	for i := 0; i < c.m; i++ {
		out := parity[i]
		for b := range out {
			out[b] = 0
		}
		for j := 0; j < c.k; j++ {
			g := c.gen[i][j]
			if g == 0 {
				continue
			}
			src := data[j]
			for b, v := range src {
				out[b] ^= gmul(g, v)
			}
		}
	}
	return nil
}

// Reconstruct rebuilds the missing data shares in place. shares must
// have length k+m, indexed share order (data 0..k-1, parity k..k+m-1);
// nil entries are the erasures. On success every data entry (index < k)
// is non-nil and bit-identical to the original; surviving parity
// entries are left untouched and missing parity is not regenerated.
// With fewer than k surviving shares it returns ErrTooFewShares.
func (c *Code) Reconstruct(shares [][]byte) error {
	if len(shares) != c.k+c.m {
		return fmt.Errorf("%w: %d shares, code has n=%d", ErrShardCount, len(shares), c.k+c.m)
	}
	size := -1
	present := make([]int, 0, c.k)
	missing := make([]int, 0, c.k)
	for idx, s := range shares {
		if s == nil {
			if idx < c.k {
				missing = append(missing, idx)
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shares of %d and %d bytes", ErrShardSize, size, len(s))
		}
		if len(present) < c.k {
			present = append(present, idx)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d of %d needed", ErrTooFewShares, len(present), c.k)
	}
	// Solve A·data = s for the chosen k survivors: A's row for a data
	// share is a unit row, for a parity share the Cauchy row. Any such
	// A is invertible (MDS), so inversion failing is a codec bug.
	a := make([][]byte, c.k)
	for r, idx := range present {
		row := make([]byte, c.k)
		if idx < c.k {
			row[idx] = 1
		} else {
			copy(row, c.gen[idx-c.k])
		}
		a[r] = row
	}
	inv, err := invertMatrix(a)
	if err != nil {
		return err
	}
	// Missing data share j is row j of inv times the survivor vector.
	for _, j := range missing {
		out := make([]byte, size)
		for t := 0; t < c.k; t++ {
			g := inv[j][t]
			if g == 0 {
				continue
			}
			src := shares[present[t]]
			for b, v := range src {
				out[b] ^= gmul(g, v)
			}
		}
		shares[j] = out
	}
	return nil
}

// invertMatrix inverts a k×k matrix over GF(2^8) by Gauss–Jordan
// elimination (the matrix is clobbered).
func invertMatrix(a [][]byte) ([][]byte, error) {
	k := len(a)
	inv := make([][]byte, k)
	for i := range inv {
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for col := 0; col < k; col++ {
		// Pivot: find a row at or below col with a nonzero entry.
		pivot := -1
		for r := col; r < k; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("%w: singular decode matrix (codec bug)", ErrTooFewShares)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Scale the pivot row to 1.
		if p := a[col][col]; p != 1 {
			pi := ginv(p)
			for j := 0; j < k; j++ {
				a[col][j] = gmul(a[col][j], pi)
				inv[col][j] = gmul(inv[col][j], pi)
			}
		}
		// Eliminate the column everywhere else.
		for r := 0; r < k; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < k; j++ {
				a[r][j] ^= gmul(f, a[col][j])
				inv[r][j] ^= gmul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}

// ComplexToBytes appends the little-endian Float64bits image of src to
// dst and returns it (16 bytes per element, real then imaginary). The
// mapping is bijective on bit patterns — NaN payloads and signed zeros
// survive — so encode→decode over any channel that preserves bytes is
// the identity on complex128 values.
func ComplexToBytes(dst []byte, src []complex128) []byte {
	for _, v := range src {
		re := math.Float64bits(real(v))
		im := math.Float64bits(imag(v))
		dst = append(dst,
			byte(re), byte(re>>8), byte(re>>16), byte(re>>24),
			byte(re>>32), byte(re>>40), byte(re>>48), byte(re>>56),
			byte(im), byte(im>>8), byte(im>>16), byte(im>>24),
			byte(im>>32), byte(im>>40), byte(im>>48), byte(im>>56))
	}
	return dst
}

// BytesToComplex is the inverse of ComplexToBytes. len(src) must be a
// multiple of 16; the result holds len(src)/16 elements.
func BytesToComplex(dst []complex128, src []byte) ([]complex128, error) {
	if len(src)%16 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of complex128", ErrShardSize, len(src))
	}
	for off := 0; off < len(src); off += 16 {
		re := uint64(src[off]) | uint64(src[off+1])<<8 | uint64(src[off+2])<<16 | uint64(src[off+3])<<24 |
			uint64(src[off+4])<<32 | uint64(src[off+5])<<40 | uint64(src[off+6])<<48 | uint64(src[off+7])<<56
		im := uint64(src[off+8]) | uint64(src[off+9])<<8 | uint64(src[off+10])<<16 | uint64(src[off+11])<<24 |
			uint64(src[off+12])<<32 | uint64(src[off+13])<<40 | uint64(src[off+14])<<48 | uint64(src[off+15])<<56
		dst = append(dst, complex(math.Float64frombits(re), math.Float64frombits(im)))
	}
	return dst, nil
}
