//go:build ignore

// amm_gen writes the AVX-512 IFMA almost-Montgomery multiplication kernel:
// amm_amd64.s holds one unrolled routine per width of 8, 16, …, 80
// radix-2^52 limbs, each keeping its accumulator in ZMM registers, and
// amm_amd64.go declares them and dispatches by a direct-call switch (a
// func-value table would make the call allocate its escaping arguments). Run it through `go generate ./internal/mont`;
// TestAMMGeneratedUpToDate fails when the committed files drift from it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
)

// maxChunks is the widest kernel in 8-limb ZMM chunks: 80 limbs cover moduli
// up to 52·80−2 = 4158 bits, n² of a 2048-bit key with slack. The
// accumulator takes one ZMM register per chunk; the broadcast multiplier,
// the broadcast quotient and a zero register take three more.
const maxChunks = 10

func main() {
	dir := flag.String("dir", ".", "directory to write amm_amd64.s and amm_amd64.go into")
	flag.Parse()
	if err := os.WriteFile(filepath.Join(*dir, "amm_amd64.s"), asm(), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*dir, "amm_amd64.go"), decls(), 0o644); err != nil {
		log.Fatal(err)
	}
}

const header = "// Code generated by amm_gen.go; DO NOT EDIT.\n\n"

func asm() []byte {
	var b bytes.Buffer
	p := func(format string, a ...any) { fmt.Fprintf(&b, format+"\n", a...) }
	b.WriteString(header)
	p("//go:build amd64")
	p("")
	p(`#include "textflag.h"`)
	for n := 1; n <= maxChunks; n++ {
		l := 8 * n
		p("")
		p("// func amm%d(z, a, b, m *big.Word, k0 uint64)", l)
		p("//")
		p("// z = a·b·2^(-52·%d) mod m, almost reduced: a, b < 2m in normalised", l)
		regs := "Z0"
		if n > 1 {
			regs = fmt.Sprintf("Z0–Z%d", n-1)
		}
		p("// radix-2^52 limbs give z < 2m, normalised. The accumulator lives in")
		p("// %s with limb 0 shadowed in R9, so the quotient digit never waits", regs)
		p("// on a vector-to-scalar move of the row it serves.")
		p("TEXT ·amm%d(SB), NOSPLIT, $0-40", l)
		p("\tMOVQ z+0(FP), DI")
		p("\tMOVQ a+8(FP), SI")
		p("\tMOVQ b+16(FP), BX")
		p("\tMOVQ m+24(FP), CX")
		p("\tMOVQ k0+32(FP), R8")
		p("\tMOVQ $0x000fffffffffffff, AX // 52-bit limb mask")
		p("\tXORQ R9, R9                  // accumulator limb 0")
		for j := 0; j < n; j++ {
			p("\tVPXORQ Z%d, Z%d, Z%d", j, j, j)
		}
		p("\tVPXORQ Z31, Z31, Z31")
		p("\tMOVQ $%d, R11", l)
		p("")
		p("row:")
		p("\tMOVQ (BX), R13")
		p("\tVPBROADCASTQ R13, Z30        // b[i] in every lane")
		p("\tMOVQ (SI), DX")
		p("\tMULXQ R13, R13, R12          // a[0]·b[i]")
		p("\tADDQ R13, R9")
		p("\tADCQ $0, R12")
		p("\tMOVQ R9, DX")
		p("\tIMULQ R8, DX")
		p("\tANDQ AX, DX                  // y = acc[0]·k0 mod 2^52")
		p("\tVPBROADCASTQ DX, Z29")
		p("\tMULXQ (CX), R13, R10         // m[0]·y")
		p("\tADDQ R13, R9")
		p("\tADCQ R10, R12")
		p("\tSHRQ $52, R12, R9            // carry out of limb 0 (its low 52 bits are zero)")
		for j := 0; j < n; j++ {
			p("\tVPMADD52LUQ %d(SI), Z30, Z%d", 64*j, j)
		}
		for j := 0; j < n; j++ {
			p("\tVPMADD52LUQ %d(CX), Z29, Z%d", 64*j, j)
		}
		p("\tVPEXTRQ $1, X0, R13")
		p("\tADDQ R13, R9                 // limb 1 becomes limb 0")
		for j := 0; j < n; j++ {
			next := 31
			if j+1 < n {
				next = j + 1
			}
			p("\tVALIGNQ $1, Z%d, Z%d, Z%d", j, next, j)
		}
		for j := 0; j < n; j++ {
			p("\tVPMADD52HUQ %d(SI), Z30, Z%d", 64*j, j)
		}
		for j := 0; j < n; j++ {
			p("\tVPMADD52HUQ %d(CX), Z29, Z%d", 64*j, j)
		}
		p("\tADDQ $8, BX")
		p("\tDECQ R11")
		p("\tJNZ row")
		p("")
		for j := 0; j < n; j++ {
			p("\tVMOVDQU64 Z%d, %d(DI)", j, 64*j)
		}
		p("\tMOVQ R9, (DI)")
		p("\tVZEROUPPER")
		p("\tXORQ R10, R10")
		p("\tMOVQ $%d, R11", l)
		p("")
		p("norm:")
		p("\tMOVQ (DI), R13")
		p("\tADDQ R10, R13")
		p("\tMOVQ R13, R10")
		p("\tSHRQ $52, R10")
		p("\tANDQ AX, R13")
		p("\tMOVQ R13, (DI)")
		p("\tADDQ $8, DI")
		p("\tDECQ R11")
		p("\tJNZ norm")
		p("\tRET")
	}
	return b.Bytes()
}

func decls() []byte {
	var b bytes.Buffer
	p := func(format string, a ...any) { fmt.Fprintf(&b, format+"\n", a...) }
	b.WriteString(header)
	p("//go:build amd64")
	p("")
	p("package mont")
	p("")
	p(`import "math/big"`)
	p("")
	p("// maxIFMALimbs is the widest generated kernel, in radix-2^52 limbs.")
	p("const maxIFMALimbs = %d", 8*maxChunks)
	for n := 1; n <= maxChunks; n++ {
		p("")
		p("//go:noescape")
		p("func amm%d(z, a, b, m *big.Word, k0 uint64)", 8*n)
	}
	p("")
	p("// amm sets z to the almost-Montgomery product a·b·2^(-52·len(z)) mod m")
	p("// (< 2m) through the kernel generated for len(z) limbs.")
	p("func amm(z, a, b, m Nat, k0 big.Word) {")
	p("\t_, _, _ = a[len(z)-1], b[len(z)-1], m[len(z)-1] // the kernel reads len(z) limbs of each")
	p("\tswitch len(z) {")
	for n := 1; n <= maxChunks; n++ {
		p("\tcase %d:", 8*n)
		p("\t\tamm%d(&z[0], &a[0], &b[0], &m[0], uint64(k0))", 8*n)
	}
	p("\tdefault:")
	p(`		panic("mont: no IFMA kernel for this width")`)
	p("\t}")
	p("}")
	out, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	return out
}
