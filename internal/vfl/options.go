package vfl

import (
	"flag"

	"vfps/internal/he"
)

// Options are a deployment's performance settings. None of them changes a
// selection, a wire byte or an operation count: they bound resources and
// decide where work runs. They are declared here once; ClusterConfig,
// vfps.Config and the HTTP create request embed them, vfpsnode binds them to
// flags (BindFlags), and the constructors read them (NewParticipant,
// NewAggServer, NewLeader, ConfigureScheme).
type Options struct {
	// Parallelism caps the concurrency of every role: the leader's queries in
	// flight (at most 4, see Leader.Similarities), the party fan-out and the
	// worker pools that encrypt, add and decrypt ciphertext vectors. 1 runs
	// everything serially (and precomputes no encryption randomizers in the
	// background); 0 or negative uses GOMAXPROCS.
	Parallelism int `json:"parallelism"`
	// EncryptWindow sets the memory budget of the fixed-base randomizer table
	// in pools a deployment starts: that of a width-w radix table; 0 keeps the
	// paillier default (6), negative restores classic uniform-r sampling (one
	// full modexp per randomizer; see SECURITY.md). Ignored by non-Paillier
	// schemes.
	EncryptWindow int `json:"-"`
}

// BindFlags registers the settings a vfpsnode process takes as flags on fs:
// -parallelism and -encrypt-window.
func (o *Options) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Parallelism, "parallelism", 0, "query and HE pipeline concurrency (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&o.EncryptWindow, "encrypt-window", 0, "fixed-base window for randomizer precompute (0 = default 6, negative = classic uniform sampling)")
}

// ConfigureScheme applies the options to an HE scheme; only Paillier has
// tunables. Every role gets the vector parallelism. A role that bulk-encrypts
// (encrypts) also starts the scheme's randomizer pool, unless it is pinned
// fully serial; the scheme owns the pool and Cluster.Close (or the scheme's
// own Close) stops it. Roles that only add or decrypt get no pool.
func ConfigureScheme(s he.Scheme, opts Options, encrypts bool) {
	p, ok := s.(*he.Paillier)
	if !ok {
		return
	}
	p.SetParallelism(opts.Parallelism)
	if encrypts && opts.Parallelism != 1 {
		p.SetEncryptWindow(opts.EncryptWindow)
		p.StartRandomizerPool(4*p.Parallelism(), 1)
	}
}
