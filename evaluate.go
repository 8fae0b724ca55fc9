package vfps

import (
	"fmt"
	"time"

	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/ml"
)

// ModelName identifies a downstream model.
type ModelName string

// The downstream models of the paper's evaluation, plus gradient-boosted
// trees (the SecureBoost-style model family of the paper's related work).
const (
	ModelKNN  ModelName = "KNN"
	ModelLR   ModelName = "LR"
	ModelMLP  ModelName = "MLP"
	ModelGBDT ModelName = "GBDT"
)

// EvalOptions tunes downstream training.
type EvalOptions struct {
	// K is the KNN neighbour count (default 10); ignored by LR/MLP.
	K int
	// MaxEpochs bounds LR/MLP training epochs and GBDT boosting rounds
	// (default 200/50, early stopped on validation loss).
	MaxEpochs int
	// LRGrid overrides the learning-rate grid (default {0.001, 0.01, 0.1}).
	LRGrid []float64
	// Seed drives parameter init and batching.
	Seed int64
	// SplitSeed drives the 80/10/10 row split (default 1).
	SplitSeed int64
}

// Evaluation reports downstream training over a selected sub-consortium.
type Evaluation struct {
	Model    ModelName
	Parties  []int
	Accuracy float64 // test accuracy
	// MacroF1 averages per-class F1 over the label classes.
	MacroF1 float64
	// AUC is the area under the ROC curve (binary consortiums only; 0
	// otherwise).
	AUC float64
	// Counts accumulates the federated training/inference cost and
	// ProjectedSeconds prices it under the calibrated model.
	Counts           CostCounts
	ProjectedSeconds float64
	WallTime         time.Duration
	// Fit carries LR/MLP training details (nil for KNN).
	Fit *ml.FitReport
}

// Evaluate trains the named downstream model on the given participants'
// features (all participants when parties is nil) with an 80/10/10 split,
// returning test accuracy and the federated cost of training.
func (c *Consortium) Evaluate(model ModelName, parties []int, opts EvalOptions) (*Evaluation, error) {
	if parties == nil {
		parties = make([]int, c.P())
		for i := range parties {
			parties[i] = i
		}
	}
	sub, err := c.pt.Select(parties)
	if err != nil {
		return nil, err
	}
	splitSeed := opts.SplitSeed
	if splitSeed == 0 {
		splitSeed = 1
	}
	trainRows, valRows, testRows, err := dataset.SplitIndices(c.N(), splitSeed)
	if err != nil {
		return nil, err
	}
	trainPt := sub.ApplyRows(trainRows)
	valPt := sub.ApplyRows(valRows)
	testPt := sub.ApplyRows(testRows)
	yTrain := dataset.SelectLabels(c.labels, trainRows)
	yVal := dataset.SelectLabels(c.labels, valRows)
	yTest := dataset.SelectLabels(c.labels, testRows)

	var counts costmodel.Counts
	var pred []int
	var scores []float64
	start := time.Now()
	ev := &Evaluation{Model: model, Parties: parties}
	switch model {
	case ModelKNN:
		k := opts.K
		if k <= 0 {
			k = 10
		}
		knn, err := ml.NewKNN(k, c.classes)
		if err != nil {
			return nil, err
		}
		knn.Counts = &counts
		if err := knn.Fit(trainPt, yTrain); err != nil {
			return nil, err
		}
		pred, err = knn.Predict(testPt)
		if err != nil {
			return nil, err
		}
		if c.classes == 2 {
			if scores, err = knn.PredictScores(testPt); err != nil {
				return nil, err
			}
		}
	case ModelLR:
		m, err := ml.NewLogisticRegression(trainPt, c.classes, opts.Seed)
		if err != nil {
			return nil, err
		}
		rep, err := m.Fit(trainPt, yTrain, valPt, yVal, ml.TrainConfig{
			MaxEpochs: opts.MaxEpochs, LRGrid: opts.LRGrid, Seed: opts.Seed, Counts: &counts,
		})
		if err != nil {
			return nil, err
		}
		ev.Fit = rep
		pred = m.Predict(testPt)
		if c.classes == 2 {
			if scores, err = m.PredictScores(testPt); err != nil {
				return nil, err
			}
		}
	case ModelMLP:
		m, err := ml.NewMLP(trainPt, c.classes, opts.Seed)
		if err != nil {
			return nil, err
		}
		rep, err := m.Fit(trainPt, yTrain, valPt, yVal, ml.TrainConfig{
			MaxEpochs: opts.MaxEpochs, LRGrid: opts.LRGrid, Seed: opts.Seed, Counts: &counts,
		})
		if err != nil {
			return nil, err
		}
		ev.Fit = rep
		pred = m.Predict(testPt)
		if c.classes == 2 {
			if scores, err = m.PredictScores(testPt); err != nil {
				return nil, err
			}
		}
	case ModelGBDT:
		rounds := opts.MaxEpochs
		m := ml.NewGBDT(ml.GBDTConfig{Rounds: rounds})
		m.Counts = &counts
		if err := m.Fit(trainPt, yTrain, valPt, yVal); err != nil {
			return nil, err
		}
		pred, err = m.Predict(testPt)
		if err != nil {
			return nil, err
		}
		if scores, err = m.PredictScores(testPt); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("vfps: unknown model %q", model)
	}
	ev.Accuracy = ml.Accuracy(pred, yTest)
	ev.MacroF1 = ml.MacroF1(pred, yTest, c.classes)
	if scores != nil {
		ev.AUC = ml.AUC(scores, yTest)
	}
	ev.WallTime = time.Since(start)
	ev.Counts = counts.Snapshot()
	ev.ProjectedSeconds = costmodel.Default.Seconds(ev.Counts)
	return ev, nil
}
