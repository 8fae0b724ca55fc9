package main

import (
	"context"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"time"

	"vfps/internal/mat"
	"vfps/internal/mont"
	"vfps/internal/paillier"
	"vfps/internal/submod"
	"vfps/internal/topk"
	"vfps/internal/transport"
)

// per times n calls of fn on one goroutine and returns the mean in unit.
func per(n int, unit time.Duration, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(unit) / float64(n)
}

// probes times, directly and on one goroutine, the primitives under the
// layers the workload uses, at the sizes it uses them at, so a move in the
// traced ledger can be told apart from a move in the kernel under it. The
// layers it does not use read 0, as in the ledger.
func probes(seed int64, sh shape) (map[string]float64, error) {
	m := map[string]float64{}
	rng := mrand.New(mrand.NewSource(seed))
	var err error
	if sh.scheme == "paillier" {
		err = probeHE(m, rng, sh.keyBits)
	} else {
		err = probeRows(m, rng)
	}
	if err == nil && sh.tcp {
		err = probeFanOut(m, rng)
	}
	return m, err
}

// firstError keeps the first error of a probe whose timed closures cannot
// return one.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if f.err == nil {
		f.err = err
	}
}

// probeHE is the Paillier layer: paillier.encrypt_us is one classic
// encryption (a full-width exponentiation, as mont.expbig_us), while
// he.encrypt_us_effective in the ledger is what a party spends per
// ciphertext through the library's pooled fixed-base path.
func probeHE(m map[string]float64, rng *mrand.Rand, keyBits int) error {
	const heOps = 64
	var fe firstError
	var sk *paillier.PrivateKey
	m["paillier.keygen_s"] = per(3, time.Second, func(int) {
		k, err := paillier.GenerateKey(rand.Reader, keyBits)
		if fe.note(err); err == nil {
			sk = k
		}
	})
	if fe.err != nil {
		return fe.err
	}
	pk := &sk.PublicKey
	cts := make([]*paillier.Ciphertext, heOps)
	m["paillier.encrypt_us"] = per(heOps, time.Microsecond, func(i int) {
		ct, err := pk.Encrypt(rand.Reader, big.NewInt(rng.Int63n(1<<40)))
		fe.note(err)
		cts[i] = ct
	})
	if fe.err != nil {
		return fe.err
	}
	acc := cts[0]
	m["paillier.add_us"] = per(heOps, time.Microsecond, func(i int) {
		sum, err := pk.AddCipher(acc, cts[i])
		if fe.note(err); err == nil {
			acc = sum
		}
	})
	m["paillier.decrypt_us"] = per(heOps, time.Microsecond, func(i int) {
		_, err := sk.Decrypt(cts[i])
		fe.note(err)
	})
	base := new(big.Int).Rand(rng, pk.N2)
	ctx2 := mont.CtxFor(pk.N2)
	m["mont.expbig_us"] = per(heOps, time.Microsecond, func(int) { ctx2.ExpBig(new(big.Int), base, pk.N) })
	return fe.err
}

// probeRows is rows_plain's inner loops: one party's distances over 100k
// rows of its 5 columns, the ranked list over them, and a 4-list Fagin merge.
func probeRows(m map[string]float64, rng *mrand.Rand) error {
	const rows, cols, lists = 100_000, 5, 4
	x := mat.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	scores := make([][]float64, lists)
	for l := range scores {
		scores[l] = make([]float64, rows)
	}
	m["mat.sqdist_ns_per_row"] = per(lists, time.Nanosecond, func(l int) {
		q := x.Row(l)
		for i := 0; i < rows; i++ {
			scores[l][i] = mat.SqDist(x.Row(i), q)
		}
	}) / rows
	ranked := make([]*topk.RankedList, lists)
	m["topk.rank_ms"] = per(lists, time.Millisecond, func(l int) { ranked[l] = topk.NewRankedList(scores[l]) })
	var fe firstError
	m["topk.fagin_ms"] = per(3, time.Millisecond, func(int) {
		_, err := topk.Fagin(ranked, knnK, 32)
		fe.note(err)
	})
	return fe.err
}

// probeFanOut is what wide_tcp adds: the 16×16 pick-8 maximisation, and the
// socket under every call — a 64 B echo for latency, 1 MiB for bandwidth.
func probeFanOut(m map[string]float64, rng *mrand.Rand) error {
	w := make([][]float64, 16)
	for i := range w {
		w[i] = make([]float64, 16)
		for j := range w[i] {
			w[i][j] = rng.Float64()
		}
	}
	var fe firstError
	m["submod.greedy_us"] = per(256, time.Microsecond, func(int) {
		f, err := submod.NewFacilityLocation(w)
		if err == nil {
			_, err = submod.Greedy(f, 8)
		}
		fe.note(err)
	})
	if fe.err != nil {
		return fe.err
	}

	srv, err := transport.ListenTCP("127.0.0.1:0", func(_ context.Context, _ string, req []byte) ([]byte, error) { return req, nil })
	if err != nil {
		return err
	}
	defer srv.Close()
	client := transport.NewTCPClient(map[string]string{"echo": srv.Addr()})
	defer client.Close()
	echo := func(payload []byte) func(int) {
		return func(int) {
			_, err := client.Call(context.Background(), "echo", "echo", payload)
			fe.note(err)
		}
	}
	m["transport.tcp_rtt_us"] = per(512, time.Microsecond, echo(make([]byte, 64)))
	const mib = 1 << 20
	// Each echo moves the MiB twice: request and reply.
	m["transport.tcp_mb_per_s"] = 2 * 1e3 / per(32, time.Millisecond, echo(make([]byte, mib)))
	return fe.err
}
