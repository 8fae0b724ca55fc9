// Code generated by amm_gen.go; DO NOT EDIT.

//go:build amd64

package mont

import "math/big"

// maxIFMALimbs is the widest generated kernel, in radix-2^52 limbs.
const maxIFMALimbs = 80

//go:noescape
func amm8(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm16(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm24(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm32(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm40(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm48(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm56(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm64(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm72(z, a, b, m *big.Word, k0 uint64)

//go:noescape
func amm80(z, a, b, m *big.Word, k0 uint64)

// amm sets z to the almost-Montgomery product a·b·2^(-52·len(z)) mod m
// (< 2m) through the kernel generated for len(z) limbs.
func amm(z, a, b, m Nat, k0 big.Word) {
	_, _, _ = a[len(z)-1], b[len(z)-1], m[len(z)-1] // the kernel reads len(z) limbs of each
	switch len(z) {
	case 8:
		amm8(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 16:
		amm16(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 24:
		amm24(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 32:
		amm32(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 40:
		amm40(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 48:
		amm48(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 56:
		amm56(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 64:
		amm64(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 72:
		amm72(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	case 80:
		amm80(&z[0], &a[0], &b[0], &m[0], uint64(k0))
	default:
		panic("mont: no IFMA kernel for this width")
	}
}
