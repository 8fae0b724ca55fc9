package experiments

import (
	"context"
	"fmt"
	"io"

	"vfps"
)

// datasetRun caches one dataset's consortium and per-method selections so
// the accuracy and time grids reuse the same selection work.
type datasetRun struct {
	name       string
	cons       *vfps.Consortium
	selections map[vfps.Method]*vfps.BaselineSelection
	allParties []int
}

func runSelections(ctx context.Context, name string, opt Options) (*datasetRun, error) {
	cons, _, err := buildConsortium(ctx, name, opt, opt.Parties, 0)
	if err != nil {
		return nil, err
	}
	run := &datasetRun{name: name, cons: cons, selections: map[vfps.Method]*vfps.BaselineSelection{}}
	for i := 0; i < cons.P(); i++ {
		run.allParties = append(run.allParties, i)
	}
	for _, m := range methodOrder {
		sel, err := cons.SelectWith(ctx, m, opt.SelectCount, opt.selectOpts())
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, m, err)
		}
		run.selections[m] = sel
	}
	return run, nil
}

// parties returns the sub-consortium a method trains on ("ALL" = everyone).
func (r *datasetRun) parties(method string) []int {
	if method == "ALL" {
		return r.allParties
	}
	return r.selections[vfps.Method(method)].Selected
}

// selectionSeconds returns the projected selection cost of a method.
func (r *datasetRun) selectionSeconds(method string) float64 {
	if method == "ALL" || method == "RANDOM-label" {
		return 0
	}
	if sel, ok := r.selections[vfps.Method(method)]; ok {
		return sel.ProjectedSeconds
	}
	return 0
}

// gridMethods is the Table IV/V comparison set, ALL first.
var gridMethods = []string{"ALL", string(vfps.MethodRandom), string(vfps.MethodShapley), string(vfps.MethodVFMine), string(vfps.MethodVFPS)}

func gridLabel(m string) string {
	if m == "ALL" {
		return "ALL"
	}
	return methodLabel(vfps.Method(m))
}

// GridResult carries both Table IV (accuracy) and Table V (end-to-end time).
type GridResult struct {
	AccTable  *Table
	TimeTable *Table
	// Accuracy[model][method][dataset] is the downstream test accuracy.
	Accuracy map[string]map[string]map[string]float64
	// Seconds[model][method][dataset] is selection + training projected time.
	Seconds map[string]map[string]map[string]float64
}

var gridModels = []vfps.ModelName{vfps.ModelKNN, vfps.ModelLR, vfps.ModelMLP}

// modelsFor returns the downstream model set: the paper's three, plus GBDT
// when the options ask for the extended grid.
func modelsFor(opt Options) []vfps.ModelName {
	if opt.IncludeGBDT {
		return append(append([]vfps.ModelName{}, gridModels...), vfps.ModelGBDT)
	}
	return gridModels
}

// Grid runs the full Table IV + Table V sweep: for every dataset, select
// with every method, then train every downstream model on the selection.
// With Repeats > 1 the sweep runs that many times under shifted seeds and
// reports per-cell means, matching the paper's five-run averaging.
func Grid(ctx context.Context, opt Options) (*GridResult, error) {
	opt = opt.withDefaults()
	if opt.Repeats > 1 {
		return gridAveraged(ctx, opt)
	}
	return gridOnce(ctx, opt)
}

// gridAveraged runs gridOnce Repeats times and averages every cell.
func gridAveraged(ctx context.Context, opt Options) (*GridResult, error) {
	repeats := opt.Repeats
	single := opt
	single.Repeats = 1
	single.Out = io.Discard
	var acc *GridResult
	for r := 0; r < repeats; r++ {
		run := single
		run.Seed = opt.Seed + int64(r)*1000
		res, err := gridOnce(ctx, run)
		if err != nil {
			return nil, fmt.Errorf("repeat %d: %w", r, err)
		}
		if acc == nil {
			acc = res
			continue
		}
		for model, methods := range res.Accuracy {
			for m, datasets := range methods {
				for ds, v := range datasets {
					acc.Accuracy[model][m][ds] += v
					acc.Seconds[model][m][ds] += res.Seconds[model][m][ds]
				}
			}
		}
	}
	inv := 1 / float64(repeats)
	for _, methods := range acc.Accuracy {
		for _, datasets := range methods {
			for ds := range datasets {
				datasets[ds] *= inv
			}
		}
	}
	for _, methods := range acc.Seconds {
		for _, datasets := range methods {
			for ds := range datasets {
				datasets[ds] *= inv
			}
		}
	}
	acc.AccTable = gridTable(fmt.Sprintf("Table IV: test accuracy per downstream task (mean of %d runs)", repeats), opt, acc.Accuracy, fmtAcc)
	acc.TimeTable = gridTable(fmt.Sprintf("Table V: end-to-end running time (projected seconds, mean of %d runs)", repeats), opt, acc.Seconds, fmtSeconds)
	acc.AccTable.Fprint(opt.Out)
	acc.TimeTable.Fprint(opt.Out)
	return acc, nil
}

func gridOnce(ctx context.Context, opt Options) (*GridResult, error) {
	models := modelsFor(opt)
	res := &GridResult{
		Accuracy: map[string]map[string]map[string]float64{},
		Seconds:  map[string]map[string]map[string]float64{},
	}
	for _, model := range models {
		res.Accuracy[string(model)] = map[string]map[string]float64{}
		res.Seconds[string(model)] = map[string]map[string]float64{}
		for _, m := range gridMethods {
			res.Accuracy[string(model)][m] = map[string]float64{}
			res.Seconds[string(model)][m] = map[string]float64{}
		}
	}
	for _, ds := range opt.Datasets {
		run, err := runSelections(ctx, ds, opt)
		if err != nil {
			return nil, err
		}
		for _, model := range models {
			for _, m := range gridMethods {
				ev, err := run.cons.Evaluate(model, run.parties(m), opt.evalOpts())
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", ds, model, m, err)
				}
				res.Accuracy[string(model)][m][ds] = ev.Accuracy
				res.Seconds[string(model)][m][ds] = run.selectionSeconds(m) + ev.ProjectedSeconds
			}
		}
	}
	res.AccTable = gridTable("Table IV: test accuracy per downstream task", opt, res.Accuracy, fmtAcc)
	res.TimeTable = gridTable("Table V: end-to-end running time (projected seconds)", opt, res.Seconds, fmtSeconds)
	res.AccTable.Fprint(opt.Out)
	res.TimeTable.Fprint(opt.Out)
	return res, nil
}

func gridTable(title string, opt Options, data map[string]map[string]map[string]float64, fmtv func(float64) string) *Table {
	t := &Table{Title: title, Header: append([]string{"Task", "Method"}, opt.Datasets...)}
	for _, model := range modelsFor(opt) {
		for _, m := range gridMethods {
			row := []string{string(model), gridLabel(m)}
			for _, ds := range opt.Datasets {
				row = append(row, fmtv(data[string(model)][m][ds]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Table1Row is one line of the motivating Table I.
type Table1Row struct {
	Method        string
	Parties       int
	SelectionSec  float64
	TrainingSec   float64
	TotalSec      float64
	TestAccuracy  float64
	WallSelection float64 // measured seconds of the scaled-down local run
}

// Table1Result reproduces Table I: LR on the SUSY-geometry dataset with
// ALL vs SHAPLEY vs VF-MINE vs VFPS-SM.
type Table1Result struct {
	Rows  []Table1Row
	Table *Table
}

// Table1 regenerates the motivating comparison.
func Table1(ctx context.Context, opt Options) (*Table1Result, error) {
	opt = opt.withDefaults()
	run, err := runSelections(ctx, "SUSY", opt)
	if err != nil {
		return nil, err
	}
	methods := []string{"ALL", string(vfps.MethodShapley), string(vfps.MethodVFMine), string(vfps.MethodVFPS)}
	res := &Table1Result{Table: &Table{
		Title:  "Table I: LR on SUSY — participant selection pays for itself",
		Header: []string{"Method", "Party Count", "Selection (s)", "Training (s)", "Total (s)", "Test Accuracy"},
	}}
	for _, m := range methods {
		parties := run.parties(m)
		ev, err := run.cons.Evaluate(vfps.ModelLR, parties, opt.evalOpts())
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Method:       gridLabel(m),
			Parties:      len(parties),
			SelectionSec: run.selectionSeconds(m),
			TrainingSec:  ev.ProjectedSeconds,
			TestAccuracy: ev.Accuracy,
		}
		if m != "ALL" {
			row.WallSelection = run.selections[vfps.Method(m)].WallTime.Seconds()
		}
		row.TotalSec = row.SelectionSec + row.TrainingSec
		res.Rows = append(res.Rows, row)
		res.Table.Rows = append(res.Table.Rows, []string{
			row.Method, fmt.Sprintf("%d", row.Parties),
			fmtSeconds(row.SelectionSec), fmtSeconds(row.TrainingSec),
			fmtSeconds(row.TotalSec), fmtAcc(row.TestAccuracy),
		})
	}
	res.Table.Fprint(opt.Out)
	return res, nil
}
