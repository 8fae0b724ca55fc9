package ml

import (
	"fmt"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/mat"
	"vfps/internal/topk"
)

// KNN is the downstream k-nearest-neighbours classifier of §V-A: every
// participant computes partial distances, the server aggregates them into
// complete distances under HE, and the leader identifies the top-k
// neighbours and takes a majority vote.
type KNN struct {
	K       int
	classes int
	trainPt *dataset.Partition
	yTrain  []int
	// Counts, when non-nil, accumulates the federated inference cost: per
	// query, each party encrypts its partial distances to every training
	// instance and the server aggregates them.
	Counts *costmodel.Counts
}

// NewKNN builds the classifier.
func NewKNN(k, classes int) (*KNN, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ml: knn k=%d must be positive", k)
	}
	if classes < 2 {
		return nil, fmt.Errorf("ml: knn needs at least 2 classes")
	}
	return &KNN{K: k, classes: classes}, nil
}

// Fit stores the training partition and labels.
func (m *KNN) Fit(trainPt *dataset.Partition, yTrain []int) error {
	if trainPt == nil || trainPt.P() == 0 {
		return fmt.Errorf("ml: knn needs a partition")
	}
	if trainPt.Parties[0].Rows != len(yTrain) {
		return fmt.Errorf("ml: knn rows/labels mismatch")
	}
	if m.K > len(yTrain) {
		return fmt.Errorf("ml: knn k=%d exceeds %d training rows", m.K, len(yTrain))
	}
	m.trainPt = trainPt
	m.yTrain = yTrain
	return nil
}

// Predict classifies every row of the query partition, which must have the
// same party layout as the training partition.
func (m *KNN) Predict(queryPt *dataset.Partition) ([]int, error) {
	if m.trainPt == nil {
		return nil, fmt.Errorf("ml: knn not fitted")
	}
	if queryPt.P() != m.trainPt.P() {
		return nil, fmt.Errorf("ml: knn partition layout mismatch: %d vs %d parties", queryPt.P(), m.trainPt.P())
	}
	nq := queryPt.Parties[0].Rows
	nTrain := len(m.yTrain)
	out := make([]int, nq)
	dist := make([]float64, nTrain)
	for q := 0; q < nq; q++ {
		for i := range dist {
			dist[i] = 0
		}
		var flops int64
		for p, party := range queryPt.Parties {
			qRow := party.Row(q)
			train := m.trainPt.Parties[p]
			for i := 0; i < nTrain; i++ {
				dist[i] += mat.SqDist(qRow, train.Row(i))
			}
			flops += int64(nTrain * party.Cols)
		}
		if m.Counts != nil {
			p := int64(queryPt.P())
			n := int64(nTrain)
			m.Counts.Add(costmodel.Raw{
				DistanceFlops: flops,
				Encryptions:   n * p,
				CipherAdds:    n * (p - 1),
				Decryptions:   n,
				ItemsSent:     n * (p + 1),
				Messages:      p + 1,
			})
		}
		votes := make([]float64, m.classes)
		for _, it := range topk.KSmallest(dist, nil, m.K) {
			votes[m.yTrain[it.ID]]++
		}
		out[q] = mat.ArgMax(votes)
	}
	return out, nil
}

// Name implements the downstream-model naming used by the harness.
func (m *KNN) Name() string { return "KNN" }
