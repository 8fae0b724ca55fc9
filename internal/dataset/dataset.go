// Package dataset provides the data layer of the reproduction: deterministic
// synthetic generators standing in for the ten public datasets of Table III
// (which are not available offline — see DESIGN.md §3), vertical feature
// partitioning across participants, duplicate-participant injection for the
// diversity study (Fig. 6), train/validation/test splitting, and CSV loading
// for user data.
package dataset

import (
	"fmt"
	"math/rand"

	"vfps/internal/mat"
)

// Dataset is a labelled classification dataset.
type Dataset struct {
	Name    string
	X       *mat.Matrix // N×F feature matrix
	Y       []int       // N labels in 0..Classes-1
	Classes int
}

// N returns the number of instances.
func (d *Dataset) N() int { return d.X.Rows }

// F returns the joint feature dimension.
func (d *Dataset) F() int { return d.X.Cols }

// Spec describes one synthetic dataset generator. The geometry fields mirror
// Table III of the paper; the structure fields control how learnable and how
// redundant the feature space is, so that vertical partitions genuinely
// differ in quality — the property participant selection exploits.
type Spec struct {
	Name      string
	Domain    string
	Instances int // paper-scale row count (Table III)
	Features  int // joint feature dimension (Table III)
	Classes   int

	// Informative is the number of features carrying class signal; the rest
	// are noise or redundant copies.
	Informative int
	// Redundant features are noisy linear copies of informative ones,
	// creating the cross-participant overlap that makes some participants
	// near-duplicates of others.
	Redundant int
	// ClustersPerClass controls class-conditional multi-modality.
	ClustersPerClass int
	// ClassSep scales centroid separation: larger is easier.
	ClassSep float64
	// NoiseStd is the within-cluster standard deviation.
	NoiseStd float64
	// LabelNoise is the fraction of labels flipped uniformly at random.
	LabelNoise float64
	// Binary quantises features to {0,1} (one-hot-like datasets such as
	// Phishing, Adult and Web).
	Binary bool
	// Seed fixes the generator stream for reproducibility.
	Seed int64
}

// PaperSpecs lists generators matching the row/feature geometry of Table III.
// Structure parameters are chosen per dataset so the suite spans easy
// (Rice, Web) to hard (SD, SUSY) tasks, mirroring the accuracy spread the
// paper reports.
// Nearly all non-informative features are redundant copies rather than pure
// noise: like the real tabular/one-hot datasets of Table III, every feature
// carries (possibly duplicated) signal, so cross-participant diversity maps
// to complementary information rather than to noise coverage.
var PaperSpecs = []Spec{
	{Name: "Bank", Domain: "Finance", Instances: 10000, Features: 11, Classes: 2,
		Informative: 4, Redundant: 6, ClustersPerClass: 2, ClassSep: 1.6, NoiseStd: 1.0, LabelNoise: 0.08, Seed: 101},
	{Name: "Credit", Domain: "Finance", Instances: 30000, Features: 23, Classes: 2,
		Informative: 7, Redundant: 15, ClustersPerClass: 3, ClassSep: 1.3, NoiseStd: 1.2, LabelNoise: 0.10, Seed: 102},
	{Name: "Phishing", Domain: "Internet", Instances: 11055, Features: 68, Classes: 2,
		Informative: 16, Redundant: 50, ClustersPerClass: 2, ClassSep: 1.2, NoiseStd: 1.0, LabelNoise: 0.04, Binary: true, Seed: 103},
	{Name: "Web", Domain: "Internet", Instances: 64700, Features: 300, Classes: 2,
		Informative: 40, Redundant: 250, ClustersPerClass: 2, ClassSep: 0.9, NoiseStd: 1.0, LabelNoise: 0.02, Binary: true, Seed: 104},
	{Name: "Rice", Domain: "Science", Instances: 18185, Features: 10, Classes: 2,
		Informative: 4, Redundant: 6, ClustersPerClass: 1, ClassSep: 3.0, NoiseStd: 0.7, LabelNoise: 0.005, Seed: 105},
	{Name: "Adult", Domain: "Science", Instances: 32561, Features: 123, Classes: 2,
		Informative: 24, Redundant: 95, ClustersPerClass: 3, ClassSep: 1.5, NoiseStd: 1.0, LabelNoise: 0.08, Binary: true, Seed: 106},
	{Name: "IJCNN", Domain: "Science", Instances: 141691, Features: 22, Classes: 2,
		Informative: 7, Redundant: 14, ClustersPerClass: 4, ClassSep: 1.8, NoiseStd: 0.9, LabelNoise: 0.03, Seed: 107},
	{Name: "SUSY", Domain: "Science", Instances: 5000000, Features: 18, Classes: 2,
		Informative: 6, Redundant: 11, ClustersPerClass: 3, ClassSep: 1.0, NoiseStd: 1.4, LabelNoise: 0.15, Seed: 108},
	{Name: "HDI", Domain: "Healthcare", Instances: 253661, Features: 21, Classes: 2,
		Informative: 6, Redundant: 14, ClustersPerClass: 2, ClassSep: 1.9, NoiseStd: 1.1, LabelNoise: 0.06, Seed: 109},
	{Name: "SD", Domain: "Healthcare", Instances: 991346, Features: 23, Classes: 2,
		Informative: 6, Redundant: 16, ClustersPerClass: 3, ClassSep: 0.9, NoiseStd: 1.5, LabelNoise: 0.18, Seed: 110},
}

// SpecByName returns the paper spec with the given name.
func SpecByName(name string) (Spec, error) {
	for _, s := range PaperSpecs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown spec %q", name)
}

// Rows is the instance count Generate(maxRows) materialises: the spec's
// Instances capped at maxRows, where maxRows <= 0 means paper scale.
func (s Spec) Rows(maxRows int) int {
	if maxRows > 0 && maxRows < s.Instances {
		return maxRows
	}
	return s.Instances
}

// Generate materialises the dataset with at most maxRows instances (0 means
// paper scale). Generation is deterministic in the spec's Seed.
func (s Spec) Generate(maxRows int) (*Dataset, error) {
	n := s.Rows(maxRows)
	if n <= 0 {
		return nil, fmt.Errorf("dataset %s: no rows requested", s.Name)
	}
	if s.Classes < 2 {
		return nil, fmt.Errorf("dataset %s: need at least 2 classes", s.Name)
	}
	inf := s.Informative
	if inf <= 0 || inf > s.Features {
		return nil, fmt.Errorf("dataset %s: informative=%d out of range", s.Name, inf)
	}
	red := s.Redundant
	if red < 0 || inf+red > s.Features {
		return nil, fmt.Errorf("dataset %s: informative+redundant exceeds features", s.Name)
	}
	clusters := s.ClustersPerClass
	if clusters < 1 {
		clusters = 1
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// Class-conditional cluster centroids in the informative subspace.
	centroids := make([][][]float64, s.Classes)
	for c := range centroids {
		centroids[c] = make([][]float64, clusters)
		for g := range centroids[c] {
			cent := make([]float64, inf)
			for j := range cent {
				cent[j] = rng.NormFloat64() * s.ClassSep
			}
			centroids[c][g] = cent
		}
	}
	// Redundant features copy a random informative feature with mixing noise.
	redSrc := make([]int, red)
	redMix := make([]float64, red)
	for i := range redSrc {
		redSrc[i] = rng.Intn(inf)
		redMix[i] = 0.1 + 0.3*rng.Float64()
	}

	x := mat.New(n, s.Features)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(s.Classes)
		g := rng.Intn(clusters)
		row := x.Row(i)
		cent := centroids[c][g]
		for j := 0; j < inf; j++ {
			row[j] = cent[j] + rng.NormFloat64()*s.NoiseStd
		}
		for j := 0; j < red; j++ {
			row[inf+j] = row[redSrc[j]] + rng.NormFloat64()*redMix[j]
		}
		for j := inf + red; j < s.Features; j++ {
			row[j] = rng.NormFloat64() // pure noise features
		}
		if s.LabelNoise > 0 && rng.Float64() < s.LabelNoise {
			c = (c + 1 + rng.Intn(s.Classes-1)) % s.Classes
		}
		y[i] = c
	}
	if s.Binary {
		x.Apply(func(v float64) float64 {
			if v > 0 {
				return 1
			}
			return 0
		})
	} else {
		x.Standardize()
	}
	return &Dataset{Name: s.Name, X: x, Y: y, Classes: s.Classes}, nil
}

// Split is a train/validation/test division of a dataset.
type Split struct {
	Train, Val, Test *Dataset
}

// SplitIndices divides row indices 0..n-1 into 80/10/10 train/val/test
// groups after a seeded shuffle. Use with Partition.ApplyRows to carve
// row-aligned views across all participants.
func SplitIndices(n int, seed int64) (train, val, test []int, err error) {
	if n < 10 {
		return nil, nil, nil, fmt.Errorf("dataset: %d rows is too few to split", n)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	nTrain := n * 8 / 10
	nVal := n / 10
	return perm[:nTrain], perm[nTrain : nTrain+nVal], perm[nTrain+nVal:], nil
}

// SelectLabels returns y restricted to the given rows, aligned with
// Partition.ApplyRows.
func SelectLabels(y []int, rows []int) []int {
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = y[r]
	}
	return out
}

// TrainValTest splits d into 80/10/10 partitions after a seeded shuffle,
// matching the paper's protocol.
func TrainValTest(d *Dataset, seed int64) (*Split, error) {
	n := d.N()
	if n < 10 {
		return nil, fmt.Errorf("dataset %s: %d rows is too few to split", d.Name, n)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	nTrain := n * 8 / 10
	nVal := n / 10
	pick := func(idx []int, suffix string) *Dataset {
		ys := make([]int, len(idx))
		for i, r := range idx {
			ys[i] = d.Y[r]
		}
		return &Dataset{
			Name:    d.Name + suffix,
			X:       d.X.SelectRows(idx),
			Y:       ys,
			Classes: d.Classes,
		}
	}
	return &Split{
		Train: pick(perm[:nTrain], "/train"),
		Val:   pick(perm[nTrain:nTrain+nVal], "/val"),
		Test:  pick(perm[nTrain+nVal:], "/test"),
	}, nil
}
