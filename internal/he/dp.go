package he

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// DP implements the differential-privacy alternative the paper discusses in
// §II: instead of encrypting partial distances, each participant perturbs
// them with Gaussian noise calibrated to (ε, δ) before release. Aggregation
// and "decryption" are then plain arithmetic — no keys, no public-key cost —
// but, as the paper notes, "adding noises inevitably affects the model
// accuracy": the noisy distances corrupt the KNN neighbour sets and hence
// the similarity estimates (the ExtDP experiment quantifies this).
//
// Each released value is perturbed with the Gaussian mechanism at scale
// σ = sensitivity·√(2·ln(1.25/δ))/ε. This models the per-release noise
// level; a full accountant for composition across releases is deployment
// policy and out of scope here.
type DP struct {
	// Epsilon and Delta are the per-release privacy parameters.
	Epsilon, Delta float64
	// Sensitivity bounds one record's contribution to a released partial
	// distance. With standardized features a loose practical bound is used
	// as the default (see NewDP).
	Sensitivity float64
	// BaseSeed is the consortium noise seed; WithIndex derives an
	// independent stream per participant from it.
	BaseSeed int64

	mu  sync.Mutex
	rng *rand.Rand
}

// DefaultSensitivity is the default clipping bound for released partial
// distances over standardized features.
const DefaultSensitivity = 4.0

// NewDP returns the scheme. seed fixes the noise stream for reproducible
// experiments; production deployments should seed from crypto/rand.
func NewDP(epsilon, delta float64, seed int64) (*DP, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("he: dp epsilon %g must be positive", epsilon)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("he: dp delta %g must be in (0,1)", delta)
	}
	return &DP{
		Epsilon:     epsilon,
		Delta:       delta,
		Sensitivity: DefaultSensitivity,
		BaseSeed:    seed,
		rng:         rand.New(rand.NewSource(seed)),
	}, nil
}

// WithIndex derives a participant-specific scheme whose noise stream is
// independent of every other participant's.
func (d *DP) WithIndex(index int) (*DP, error) {
	nd, err := NewDP(d.Epsilon, d.Delta, d.BaseSeed+7919*int64(index+1))
	if err != nil {
		return nil, err
	}
	nd.Sensitivity = d.Sensitivity
	return nd, nil
}

// Sigma is the Gaussian-mechanism noise scale.
func (d *DP) Sigma() float64 {
	return d.Sensitivity * math.Sqrt(2*math.Log(1.25/d.Delta)) / d.Epsilon
}

// Name implements Scheme.
func (d *DP) Name() string { return "dp" }

// Encrypt implements Scheme: release the value perturbed with calibrated
// Gaussian noise. The output is a plain 8-byte float — DP protects through
// noise, not secrecy.
func (d *DP) Encrypt(v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("he: cannot release non-finite value %g", v)
	}
	d.mu.Lock()
	noise := d.rng.NormFloat64() * d.Sigma()
	d.mu.Unlock()
	return (&Plain{}).Encrypt(v + noise)
}

// Decrypt implements Scheme: decode the (noisy) value.
func (d *DP) Decrypt(c []byte) (float64, error) { return (&Plain{}).Decrypt(c) }

// Add implements Scheme: plain addition of noisy values.
func (d *DP) Add(a, b []byte) ([]byte, error) { return (&Plain{}).Add(a, b) }
