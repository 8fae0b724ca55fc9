package experiments

import (
	"context"
	"fmt"

	"vfps"
)

// ExtPruningResult reports how Fagin's pruning factor (instances encrypted
// per query, BASE / SM) grows with the dataset size — the mechanism behind
// the paper's large SUSY-scale reductions (46× at N = 5M in Fig. 9). This
// extends the paper's fixed-N ablation with an N sweep.
type ExtPruningResult struct {
	RowCounts []int
	// Factor[dataset][i] = BASE candidates / SM candidates at RowCounts[i].
	Factor map[string][]float64
	Table  *Table
}

// ExtPruning sweeps the instance count and measures the candidate-pruning
// factor of the Fagin optimization.
func ExtPruning(ctx context.Context, opt Options) (*ExtPruningResult, error) {
	opt = opt.withDefaults()
	datasets := opt.Datasets
	if len(datasets) == 10 {
		datasets = []string{"Phishing", "SUSY"}
	}
	rowCounts := []int{200, 400, 800, 1600, 3200}
	res := &ExtPruningResult{RowCounts: rowCounts, Factor: map[string][]float64{}}
	res.Table = &Table{
		Title:  "Extension: Fagin pruning factor vs dataset size",
		Header: []string{"Dataset", "N=200", "N=400", "N=800", "N=1600", "N=3200"},
	}
	for _, ds := range datasets {
		factors := make([]float64, len(rowCounts))
		for i, rows := range rowCounts {
			local := opt
			local.Rows = rows
			local.ScaleRows = false
			cons, _, err := buildConsortium(ctx, ds, local, opt.Parties, 0)
			if err != nil {
				return nil, err
			}
			so := local.selectOpts()
			sel, err := cons.Select(ctx, opt.SelectCount, so)
			if err != nil {
				return nil, fmt.Errorf("%s/N=%d: %w", ds, rows, err)
			}
			factors[i] = float64(rows-1) / sel.AvgCandidates
		}
		res.Factor[ds] = factors
		row := []string{ds}
		for _, f := range factors {
			row = append(row, fmt.Sprintf("%.2fx", f))
		}
		res.Table.Rows = append(res.Table.Rows, row)
	}
	res.Table.Fprint(opt.Out)
	return res, nil
}

// ExtTopkResult compares the three top-k protocols (BASE, Fagin, TA) on the
// axes that matter in the encrypted setting: candidates encrypted per query,
// protocol messages, and projected cost. It substantiates §IV-B's choice of
// Fagin: TA sees fewer candidates but pays a leader round trip per scan
// batch for its threshold check.
type ExtTopkResult struct {
	// Rows[i] = {protocol, candidates/query, messages, projected seconds}.
	Protocols  []string
	Candidates []float64
	Messages   []int64
	Projected  []float64
	Table      *Table
}

// ExtTopk runs the same selection under each top-k protocol.
func ExtTopk(ctx context.Context, opt Options) (*ExtTopkResult, error) {
	opt = opt.withDefaults()
	ds := opt.Datasets[0]
	cons, _, err := buildConsortium(ctx, ds, opt, opt.Parties, 0)
	if err != nil {
		return nil, err
	}
	res := &ExtTopkResult{Protocols: []string{"base", "fagin", "threshold"}}
	for _, proto := range res.Protocols {
		so := opt.selectOpts()
		so.TopK = proto
		sel, err := cons.Select(ctx, opt.SelectCount, so)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", ds, proto, err)
		}
		res.Candidates = append(res.Candidates, sel.AvgCandidates)
		res.Messages = append(res.Messages, sel.Counts.Messages)
		res.Projected = append(res.Projected, sel.ProjectedSeconds)
	}
	res.Table = &Table{
		Title:  fmt.Sprintf("Extension: top-k protocol comparison (%s)", ds),
		Header: []string{"Protocol", "Avg candidates/query", "Messages", "Projected selection (s)"},
	}
	for i, proto := range res.Protocols {
		res.Table.Rows = append(res.Table.Rows, []string{
			proto,
			fmt.Sprintf("%.1f", res.Candidates[i]),
			fmt.Sprintf("%d", res.Messages[i]),
			fmtSeconds(res.Projected[i]),
		})
	}
	res.Table.Fprint(opt.Out)
	return res, nil
}

// ExtSchemeResult compares the two privacy-protection techniques the paper
// discusses in §II that preserve exact aggregates: additively homomorphic
// encryption (packed Paillier) and SMC-style pairwise masking (secagg). Same
// protocol, same candidate pruning — only the protection layer differs.
type ExtSchemeResult struct {
	Schemes   []string
	Projected []float64 // projected selection seconds
	Bytes     []int64   // bytes shipped by participants and servers
	Table     *Table
}

// ExtScheme runs the same selection under each protection scheme.
func ExtScheme(ctx context.Context, opt Options) (*ExtSchemeResult, error) {
	opt = opt.withDefaults()
	ds := opt.Datasets[0]
	d, err := vfps.GenerateDataset(ds, opt.rowsFor(ds))
	if err != nil {
		return nil, err
	}
	pt, err := vfps.VerticalSplit(d, opt.Parties, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	res := &ExtSchemeResult{Schemes: []string{"paillier (HE)", "secagg (masking)"}}
	for _, scheme := range []string{"paillier", "secagg"} {
		cons, err := vfps.NewConsortium(ctx, vfps.Config{
			Partition: pt, Labels: d.Y, Classes: d.Classes,
			Scheme: scheme, ShuffleSeed: opt.Seed + 303,
		})
		if err != nil {
			return nil, err
		}
		sel, err := cons.Select(ctx, opt.SelectCount, opt.selectOpts())
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", ds, scheme, err)
		}
		res.Projected = append(res.Projected, sel.ProjectedSeconds)
		res.Bytes = append(res.Bytes, sel.Counts.WireBytes())
	}
	res.Table = &Table{
		Title:  fmt.Sprintf("Extension: protection-scheme comparison (%s)", ds),
		Header: []string{"Scheme", "Projected selection (s)", "Payload bytes"},
	}
	for i, s := range res.Schemes {
		res.Table.Rows = append(res.Table.Rows, []string{
			s, fmtSeconds(res.Projected[i]), fmt.Sprintf("%d", res.Bytes[i]),
		})
	}
	res.Table.Fprint(opt.Out)
	return res, nil
}

// ExtDPResult reports the privacy/utility trade-off of the DP protection
// alternative (§II): selection fidelity and downstream accuracy as the
// per-release ε shrinks, substantiating the paper's remark that "adding
// noises inevitably affects the model accuracy".
type ExtDPResult struct {
	Epsilons []float64
	// Agreement[i] reports whether the DP run selected the same
	// sub-consortium as the exact protocol.
	Agreement []bool
	// Accuracy[i] is the downstream KNN accuracy on the DP selection.
	Accuracy []float64
	// ExactAccuracy is the downstream accuracy of the exact protocol's
	// selection.
	ExactAccuracy float64
	Table         *Table
}

// ExtDP sweeps ε on one dataset.
func ExtDP(ctx context.Context, opt Options) (*ExtDPResult, error) {
	opt = opt.withDefaults()
	ds := opt.Datasets[0]
	d, err := vfps.GenerateDataset(ds, opt.rowsFor(ds))
	if err != nil {
		return nil, err
	}
	pt, err := vfps.VerticalSplit(d, opt.Parties, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	exactCons, err := vfps.NewConsortium(ctx, vfps.Config{
		Partition: pt, Labels: d.Y, Classes: d.Classes, Scheme: "plain", ShuffleSeed: opt.Seed + 303,
	})
	if err != nil {
		return nil, err
	}
	exact, err := exactCons.Select(ctx, opt.SelectCount, opt.selectOpts())
	if err != nil {
		return nil, err
	}
	exactEval, err := exactCons.Evaluate(vfps.ModelKNN, exact.Selected, opt.evalOpts())
	if err != nil {
		return nil, err
	}
	res := &ExtDPResult{
		Epsilons:      []float64{0.01, 0.1, 1, 10, 100},
		ExactAccuracy: exactEval.Accuracy,
	}
	for _, eps := range res.Epsilons {
		cons, err := vfps.NewConsortium(ctx, vfps.Config{
			Partition: pt, Labels: d.Y, Classes: d.Classes,
			Scheme: "dp", DPEpsilon: eps, ShuffleSeed: opt.Seed + 303,
		})
		if err != nil {
			return nil, err
		}
		sel, err := cons.Select(ctx, opt.SelectCount, opt.selectOpts())
		if err != nil {
			return nil, fmt.Errorf("%s/eps=%g: %w", ds, eps, err)
		}
		ev, err := cons.Evaluate(vfps.ModelKNN, sel.Selected, opt.evalOpts())
		if err != nil {
			return nil, err
		}
		res.Agreement = append(res.Agreement, sameSet(sel.Selected, exact.Selected))
		res.Accuracy = append(res.Accuracy, ev.Accuracy)
	}
	res.Table = &Table{
		Title:  fmt.Sprintf("Extension: DP protection privacy/utility trade-off (%s; exact acc %.4f)", ds, res.ExactAccuracy),
		Header: []string{"Epsilon", "Matches exact selection", "Downstream accuracy"},
	}
	for i, eps := range res.Epsilons {
		match := "no"
		if res.Agreement[i] {
			match = "yes"
		}
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%g", eps), match, fmtAcc(res.Accuracy[i]),
		})
	}
	res.Table.Fprint(opt.Out)
	return res, nil
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[int]bool{}
	for _, v := range a {
		in[v] = true
	}
	for _, v := range b {
		if !in[v] {
			return false
		}
	}
	return true
}

// ExtBatchResult reports the Fagin mini-batch size trade-off: larger batches
// mean fewer protocol rounds but more over-scanning (larger candidate sets),
// the b knob of the paper's Step ①–② streaming.
type ExtBatchResult struct {
	Batches    []int
	Candidates []float64 // avg per query
	Rounds     []float64 // avg per query
	Projected  []float64 // projected selection seconds
	Table      *Table
}

// ExtBatch sweeps the ranked-list streaming batch size on one dataset.
func ExtBatch(ctx context.Context, opt Options) (*ExtBatchResult, error) {
	opt = opt.withDefaults()
	ds := opt.Datasets[0]
	d, err := vfps.GenerateDataset(ds, opt.rowsFor(ds))
	if err != nil {
		return nil, err
	}
	pt, err := vfps.VerticalSplit(d, opt.Parties, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	batches := []int{1, 8, 32, 128, 512}
	res := &ExtBatchResult{Batches: batches}
	for _, b := range batches {
		cons, err := vfps.NewConsortium(ctx, vfps.Config{
			Partition: pt, Labels: d.Y, Classes: d.Classes,
			Scheme: "plain", ShuffleSeed: opt.Seed + 303, FaginBatch: b,
		})
		if err != nil {
			return nil, err
		}
		sel, err := cons.Select(ctx, opt.SelectCount, opt.selectOpts())
		if err != nil {
			return nil, fmt.Errorf("%s/batch=%d: %w", ds, b, err)
		}
		res.Candidates = append(res.Candidates, sel.AvgCandidates)
		res.Rounds = append(res.Rounds, float64(sel.Counts.Messages)/float64(opt.Queries))
		res.Projected = append(res.Projected, sel.ProjectedSeconds)
	}
	res.Table = &Table{
		Title:  fmt.Sprintf("Extension: Fagin mini-batch size trade-off (%s)", ds),
		Header: []string{"Batch b", "Avg candidates/query", "Msgs/query", "Projected selection (s)"},
	}
	for i, b := range batches {
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.1f", res.Candidates[i]),
			fmt.Sprintf("%.1f", res.Rounds[i]),
			fmtSeconds(res.Projected[i]),
		})
	}
	res.Table.Fprint(opt.Out)
	return res, nil
}
