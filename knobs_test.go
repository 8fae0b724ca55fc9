package vfps

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vfps/internal/vfl"
)

// TestKnobsDeclaredOnce keeps the performance settings in one place. It
// parses the non-test Go of the configuration surfaces (vfps.go,
// internal/vfl, internal/server, cmd/) and fails when a setting is declared
// as a struct field anywhere but vfl.Options, when a retired setting is
// declared anywhere, when one of its vfpsnode flags is registered outside
// Options.BindFlags, when a retired flag is registered anywhere, or when a
// mutator that re-plumbed a setting after construction is declared again.
func TestKnobsDeclaredOnce(t *testing.T) {
	// true: a setting vfl.Options must declare. false: a retired setting (the
	// shared randomizer pool, the caches that are now always on, the sharded
	// reduce) or a name a setting had in the hand-copied structs, which no
	// struct may declare again.
	settings := map[string]bool{
		"Parallelism": true, "EncryptWindow": true, "ShardWorkers": false, "PackHint": false,
		"Pool": false, "SharedPool": false, "PackWidthHint": false, "RandomizerPool": false,
		"DeltaCache": false, "SimCache": false,
	}
	// true: a live flag, registered by Options.BindFlags only. false: a
	// retired flag, registered nowhere.
	flags := map[string]bool{"parallelism": true, "encrypt-window": true,
		"delta-cache": false, "shard-workers": false, "qworkers": false}
	mutators := map[string]bool{"SetParallelism": true, "SetPayloadOptions": true, "SetPackHint": true}

	var files []string
	files = append(files, "vfps.go")
	for _, root := range []string{"internal/vfl", "internal/server", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	optionsFile := filepath.Join("internal", "vfl", "options.go")
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		inOptions := path == optionsFile
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						live, ok := settings[name.Name]
						switch {
						case !ok:
						case !live:
							t.Errorf("%s: %s.%s declares a retired setting", fset.Position(name.Pos()), n.Name.Name, name.Name)
						case inOptions && n.Name.Name == "Options":
							declared[name.Name] = true
						default:
							t.Errorf("%s: %s.%s re-declares a setting of vfl.Options; embed Options instead",
								fset.Position(name.Pos()), n.Name.Name, name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil && mutators[n.Name.Name] {
					t.Errorf("%s: %s re-plumbs a setting after construction; pass Options to the constructor",
						fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || !isFlagRegistration(sel.Sel.Name) {
					return true
				}
				for _, arg := range n.Args {
					lit, ok := arg.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					name, err := strconv.Unquote(lit.Value)
					live, ok := flags[name]
					switch {
					case err != nil || !ok:
					case !live:
						t.Errorf("%s: registers the retired flag -%s", fset.Position(lit.Pos()), name)
					case !inOptions:
						t.Errorf("%s: flag -%s registered outside vfl.Options.BindFlags", fset.Position(lit.Pos()), name)
					}
				}
			}
			return true
		})
	}
	for name, live := range settings {
		if live && !declared[name] {
			t.Errorf("vfl.Options does not declare %s", name)
		}
	}
}

// isFlagRegistration reports whether a method name registers a flag on a
// flag.FlagSet (or the flag package's CommandLine helpers).
func isFlagRegistration(name string) bool {
	switch strings.TrimSuffix(name, "Var") {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "Text":
		return true
	}
	return false
}

// TestKnobTableDocumented checks README's Options table against the code:
// one row per vfl.Options field, in declaration order; each flag cell names
// the flag Options.BindFlags registers for that field (or — for none); each
// HTTP-key cell is the field's json tag (or — for json:"-").
func TestKnobTableDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	inTable := false
	for _, line := range strings.Split(string(readme), "\n") {
		switch {
		case strings.HasPrefix(line, "| `Options` field |"):
			inTable = true
		case !inTable:
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case !strings.HasPrefix(line, "|---"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			for i := range cells {
				cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
			}
			rows = append(rows, cells)
		}
	}

	var o vfl.Options
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	o.BindFlags(fs)
	flagOf := map[uintptr]string{}
	fs.VisitAll(func(f *flag.Flag) { flagOf[reflect.ValueOf(f.Value).Pointer()] = "-" + f.Name })

	v := reflect.ValueOf(&o).Elem()
	if len(rows) != v.NumField() {
		t.Fatalf("README's Options table has %d rows, vfl.Options has %d fields", len(rows), v.NumField())
	}
	for i, row := range rows {
		field := v.Type().Field(i)
		if len(row) < 3 || row[0] != field.Name {
			t.Errorf("README's Options table row %d is %q, want field %s", i+1, row, field.Name)
			continue
		}
		wantFlag := flagOf[v.Field(i).Addr().Pointer()]
		if wantFlag == "" {
			wantFlag = "—"
		}
		if row[1] != wantFlag {
			t.Errorf("README: %s's flag cell is %q, Options.BindFlags registers %q", field.Name, row[1], wantFlag)
		}
		wantKey, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		switch wantKey {
		case "-":
			wantKey = "—"
		case "":
			wantKey = field.Name
		}
		if row[2] != wantKey {
			t.Errorf("README: %s's HTTP key cell is %q, its json tag is %q", field.Name, row[2], wantKey)
		}
	}
}
