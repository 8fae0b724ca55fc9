package ml

import (
	"fmt"
	"math"

	"vfps/internal/dataset"
	"vfps/internal/topk"
)

// PredictScores returns the positive-class probability for every row
// (binary models only), for threshold tuning and AUC evaluation.
func (m *LogisticRegression) PredictScores(pt *dataset.Partition) ([]float64, error) {
	if m.classes != 2 {
		return nil, fmt.Errorf("ml: scores require a binary model, have %d classes", m.classes)
	}
	n := pt.Parties[0].Rows
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	logits := m.forward(pt, rows)
	out := make([]float64, n)
	for i := range out {
		row := logits.Row(i)
		out[i] = softmax2(row[0], row[1])
	}
	return out, nil
}

// PredictScores returns the positive-class probability for every row
// (binary models only).
func (m *MLP) PredictScores(pt *dataset.Partition) ([]float64, error) {
	if m.classes != 2 {
		return nil, fmt.Errorf("ml: scores require a binary model, have %d classes", m.classes)
	}
	n := pt.Parties[0].Rows
	out := make([]float64, n)
	const chunk = 256
	rows := make([]int, 0, chunk)
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		rows = rows[:0]
		for r := start; r < end; r++ {
			rows = append(rows, r)
		}
		logits := m.forward(pt, rows)
		for i := 0; i < logits.Rows; i++ {
			row := logits.Row(i)
			out[start+i] = softmax2(row[0], row[1])
		}
	}
	return out, nil
}

// softmax2 is the probability of class 1 under a two-class softmax.
func softmax2(z0, z1 float64) float64 { return 1 / (1 + math.Exp(z0-z1)) }

// PredictScores returns the positive-class probability for every row.
func (m *GBDT) PredictScores(pt *dataset.Partition) ([]float64, error) {
	if len(m.trees) == 0 {
		return nil, fmt.Errorf("ml: gbdt not fitted")
	}
	if pt.P() != len(m.nFeats) {
		return nil, fmt.Errorf("ml: gbdt layout mismatch")
	}
	n := pt.Parties[0].Rows
	out := make([]float64, n)
	rowBuf := make([]float64, 0, 64)
	for i := 0; i < n; i++ {
		rowBuf = jointRow(pt, i, rowBuf)
		margin := m.bias
		for _, t := range m.trees {
			margin += m.cfg.LearningRate * t.predict(rowBuf)
		}
		out[i] = sigmoid(margin)
	}
	return out, nil
}

// PredictScores returns the positive-class vote fraction among the k
// nearest neighbours of every query row.
func (m *KNN) PredictScores(queryPt *dataset.Partition) ([]float64, error) {
	if m.trainPt == nil {
		return nil, fmt.Errorf("ml: knn not fitted")
	}
	if m.classes != 2 {
		return nil, fmt.Errorf("ml: scores require a binary model, have %d classes", m.classes)
	}
	if queryPt.P() != m.trainPt.P() {
		return nil, fmt.Errorf("ml: knn partition layout mismatch")
	}
	nq := queryPt.Parties[0].Rows
	nTrain := len(m.yTrain)
	out := make([]float64, nq)
	dist := make([]float64, nTrain)
	for q := 0; q < nq; q++ {
		for i := range dist {
			dist[i] = 0
		}
		for p, party := range queryPt.Parties {
			qRow := party.Row(q)
			train := m.trainPt.Parties[p]
			for i := 0; i < nTrain; i++ {
				dist[i] += sqDistRows(qRow, train.Row(i))
			}
		}
		pos := 0
		for _, it := range topk.KSmallest(dist, nil, m.K) {
			if m.yTrain[it.ID] == 1 {
				pos++
			}
		}
		out[q] = float64(pos) / float64(m.K)
	}
	return out, nil
}

func sqDistRows(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
