package vfl

import (
	"context"
	"crypto/rand"
	"fmt"

	"vfps/internal/he"
	"vfps/internal/paillier"
	"vfps/internal/transport"
	"vfps/internal/wire"
)

// KeyServer generates the protection key material and serves it to the
// cluster: the HE public key to every node and the private key to the leader
// (§IV-A). Besides Paillier it supports the simulated "plain" scheme for
// paper-scale sweeps and the "secagg" pairwise-masking scheme (the SMC
// alternative of §II), whose consortium parameters it distributes.
type KeyServer struct {
	scheme         string
	sk             *paillier.PrivateKey
	parties        int
	maskSeed       int64
	epsilon, delta float64
}

// NewKeyServer creates the role. scheme is "paillier" (keyBits sized
// modulus) or "plain". For "secagg" use NewKeyServerSecAgg.
func NewKeyServer(scheme string, keyBits int) (*KeyServer, error) {
	switch scheme {
	case "plain":
		return &KeyServer{scheme: scheme}, nil
	case "paillier":
		sk, err := paillier.GenerateKey(rand.Reader, keyBits)
		if err != nil {
			return nil, fmt.Errorf("vfl: key server: %w", err)
		}
		return &KeyServer{scheme: scheme, sk: sk}, nil
	default:
		return nil, fmt.Errorf("vfl: unknown HE scheme %q", scheme)
	}
}

// NewKeyServerSecAgg creates a key server distributing secure-aggregation
// masking parameters for a consortium of the given size.
func NewKeyServerSecAgg(parties int, maskSeed int64) (*KeyServer, error) {
	if parties < 2 {
		return nil, fmt.Errorf("vfl: secagg needs at least 2 parties, got %d", parties)
	}
	return &KeyServer{scheme: "secagg", parties: parties, maskSeed: maskSeed}, nil
}

// NewKeyServerDP creates a key server distributing differential-privacy
// parameters (the noise-based protection of §II).
func NewKeyServerDP(epsilon, delta float64, noiseSeed int64) (*KeyServer, error) {
	if _, err := he.NewDP(epsilon, delta, noiseSeed); err != nil {
		return nil, fmt.Errorf("vfl: %w", err)
	}
	return &KeyServer{scheme: "dp", epsilon: epsilon, delta: delta, maskSeed: noiseSeed}, nil
}

// Handler returns the RPC handler for the key-server role.
func (k *KeyServer) Handler() transport.Handler {
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if err := wire.Unmarshal(req, nil); err != nil {
			return nil, err
		}
		switch method {
		case MethodPublicKey:
			resp := PublicKeyResp{Scheme: k.scheme, Parties: k.parties, MaskSeed: k.maskSeed,
				Epsilon: k.epsilon, Delta: k.delta}
			if k.sk != nil {
				resp.Key = he.MarshalPublicKey(&k.sk.PublicKey)
			}
			raw, _ := wire.Marshal(&resp)
			return raw, nil
		case MethodPrivateKey:
			resp := PrivateKeyResp{Scheme: k.scheme, Parties: k.parties, MaskSeed: k.maskSeed,
				Epsilon: k.epsilon, Delta: k.delta}
			if k.sk != nil {
				resp.Key = he.MarshalPrivateKey(k.sk)
			}
			raw, _ := wire.Marshal(&resp)
			return raw, nil
		default:
			return nil, fmt.Errorf("%w: %s", transport.ErrUnknownMethod, method)
		}
	}
}

// FetchPublicScheme obtains an encrypt/add-only Scheme from the key server.
func FetchPublicScheme(ctx context.Context, c transport.Caller, keyNode string) (he.Scheme, error) {
	var resp PublicKeyResp
	if _, err := transport.NewCodecCaller(c).Invoke(ctx, keyNode, MethodPublicKey, nil, &resp); err != nil {
		return nil, fmt.Errorf("vfl: fetching public key: %w", err)
	}
	switch resp.Scheme {
	case "plain":
		return he.NewPlain(), nil
	case "secagg":
		// Distributed as an unbound template; participants bind their index.
		return he.NewSecAgg(-1, resp.Parties, resp.MaskSeed)
	case "dp":
		return he.NewDP(resp.Epsilon, resp.Delta, resp.MaskSeed)
	case "paillier":
		pk, err := he.UnmarshalPublicKey(resp.Key)
		if err != nil {
			return nil, err
		}
		return he.NewPaillier(pk, nil), nil
	default:
		return nil, fmt.Errorf("vfl: key server offered unknown scheme %q", resp.Scheme)
	}
}

// FetchPrivateScheme obtains the full Scheme (with decryption); only the
// leader should call this.
func FetchPrivateScheme(ctx context.Context, c transport.Caller, keyNode string) (he.Scheme, error) {
	var resp PrivateKeyResp
	if _, err := transport.NewCodecCaller(c).Invoke(ctx, keyNode, MethodPrivateKey, nil, &resp); err != nil {
		return nil, fmt.Errorf("vfl: fetching private key: %w", err)
	}
	switch resp.Scheme {
	case "plain":
		return he.NewPlain(), nil
	case "secagg":
		// Masking has no private key: full aggregates self-decrypt once all
		// parties' masks have cancelled.
		return he.NewSecAgg(-1, resp.Parties, resp.MaskSeed)
	case "dp":
		// Noisy releases are readable by design; there is no key.
		return he.NewDP(resp.Epsilon, resp.Delta, resp.MaskSeed)
	case "paillier":
		sk, err := he.UnmarshalPrivateKey(resp.Key)
		if err != nil {
			return nil, err
		}
		return he.NewPaillier(&sk.PublicKey, sk), nil
	default:
		return nil, fmt.Errorf("vfl: key server offered unknown scheme %q", resp.Scheme)
	}
}
