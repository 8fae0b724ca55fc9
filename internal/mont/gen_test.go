package mont

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestAMMGeneratedUpToDate reruns amm_gen.go into a scratch directory and
// fails when the committed kernel or its declarations drift from it: edit
// the generator and run `go generate ./internal/mont`, never the output.
func TestAMMGeneratedUpToDate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the generator")
	}
	goTool, err := exec.LookPath("go") // go test puts its own toolchain first on PATH
	if err != nil {
		t.Skipf("no go tool to run the generator: %v", err)
	}
	dir := t.TempDir()
	if out, err := exec.Command(goTool, "run", "amm_gen.go", "-dir", dir).CombinedOutput(); err != nil {
		t.Fatalf("go run amm_gen.go: %v\n%s", err, out)
	}
	for _, name := range []string{"amm_amd64.s", "amm_amd64.go"} {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from amm_gen.go's output; run go generate ./internal/mont", name)
		}
	}
}
