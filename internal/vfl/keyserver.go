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

// KeyServer generates the HE key pair and serves it to the cluster: the
// public key to every node and the private key to the leader (§IV-A).
// Besides Paillier it supports the simulated "plain" scheme for paper-scale
// sweeps, which has no key material.
type KeyServer struct {
	scheme string
	sk     *paillier.PrivateKey
}

// NewKeyServer creates the role. scheme is "paillier" (keyBits sized
// modulus) or "plain".
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

// Handler returns the RPC handler for the key-server role.
func (k *KeyServer) Handler() transport.Handler {
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if err := wire.Unmarshal(req, nil); err != nil {
			return nil, err
		}
		switch method {
		case MethodPublicKey:
			resp := PublicKeyResp{Scheme: k.scheme}
			if k.sk != nil {
				resp.Key = he.MarshalPublicKey(&k.sk.PublicKey)
			}
			raw, _ := wire.Marshal(&resp)
			return raw, nil
		case MethodPrivateKey:
			resp := PrivateKeyResp{Scheme: k.scheme}
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
