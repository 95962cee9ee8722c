package experiment

// Fixed-point formatting for report cells.  strconv (and therefore fmt)
// formats a float with a fixed number of decimals through its arbitrary-
// precision fallback, which costs more than the rest of a rendered report.
// appendFixed produces the same bytes from exact integer arithmetic for the
// magnitudes a report holds, and defers to strconv for everything else.

import (
	"math"
	"math/bits"
	"strconv"
)

// fixedPow10 holds 10^p for the precisions appendFixed handles itself.
var fixedPow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// fixedLimit bounds the fast path: below it every float64 is a 53-bit
// mantissa times a negative power of two, and |x|*10^6 fits in 63 bits.
const fixedLimit = 1e12

// appendFixed appends x formatted like strconv.AppendFloat(b, x, 'f', prec,
// 64) — and so like fmt's "%.<prec>f" — byte for byte.
//
// x is m*2^e with integer m < 2^53 and e < 0, so x*10^prec is the exact
// 128-bit product m*10^prec shifted right by -e bits.  Rounding that shift
// to nearest, ties to even, is exactly how strconv rounds the decimal
// expansion of x at the prec-th decimal.
func appendFixed(b []byte, x float64, prec int) []byte {
	a := math.Abs(x)
	if prec < 0 || prec >= len(fixedPow10) || !(a < fixedLimit) || a == 0 {
		// NaN and the infinities fail a < fixedLimit; zero keeps strconv's
		// sign handling of -0.
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	fb := math.Float64bits(a)
	mant := fb & (1<<52 - 1)
	exp := int(fb >> 52)
	if exp == 0 {
		exp = 1 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	shift := uint(1075 - exp) // a = mant * 2^-shift, shift >= 1 below fixedLimit

	hi, lo := bits.Mul64(mant, fixedPow10[prec]) // < 2^73: hi < 2^9
	q := roundShift(hi, lo, shift)

	if math.Signbit(x) {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, q/fixedPow10[prec], 10)
	if prec > 0 {
		var frac [len(fixedPow10)]byte
		f := q % fixedPow10[prec]
		for i := prec - 1; i >= 0; i-- {
			frac[i] = byte('0' + f%10)
			f /= 10
		}
		b = append(b, '.')
		b = append(b, frac[:prec]...)
	}
	return b
}

// roundShift returns the 128-bit value hi:lo (hi < 2^9) shifted right by s
// >= 1 bits, rounded to nearest with ties to even.
func roundShift(hi, lo uint64, s uint) uint64 {
	var q uint64
	var above, tie bool // remainder compared with half of 2^s
	switch {
	case s >= 74:
		// hi:lo < 2^73 <= 2^(s-1): strictly below half.
		return 0
	case s > 64:
		q = hi >> (s - 64)
		rem := hi & (1<<(s-64) - 1)
		half := uint64(1) << (s - 65)
		above = rem > half || (rem == half && lo != 0)
		tie = rem == half && lo == 0
	case s == 64:
		q = hi
		above = lo > 1<<63
		tie = lo == 1<<63
	default:
		q = hi<<(64-s) | lo>>s
		rem := lo & (1<<s - 1)
		half := uint64(1) << (s - 1)
		above = rem > half
		tie = rem == half
	}
	if above || (tie && q&1 == 1) {
		q++
	}
	return q
}
