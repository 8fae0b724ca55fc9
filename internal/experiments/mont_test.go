package experiments

import (
	"context"
	"fmt"
	"testing"

	"vfps"
)

// TestMontSelectionIdentity is the acceptance gate for the Montgomery kernel:
// across {serial, parallel} × {windowed pools on/off},
// selections with the kernel forced on are bit-identical to the same
// configuration with the kernel forced off (pure math/big).
func TestMontSelectionIdentity(t *testing.T) {
	ctx := context.Background()
	d, err := vfps.GenerateDataset("Bank", 60)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := vfps.VerticalSplit(d, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mont, parallelism, window int) []int {
		t.Helper()
		cons, err := vfps.NewConsortium(ctx, vfps.Config{
			Partition:     pt,
			Labels:        d.Y,
			Classes:       d.Classes,
			Scheme:        "paillier",
			KeyBits:       256,
			ShuffleSeed:   303,
			Parallelism:   parallelism,
			EncryptWindow: window,
			Mont:          mont,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cons.Close()
		sel, err := cons.Select(ctx, 2, vfps.SelectOptions{
			K:          3,
			NumQueries: 4,
			Seed:       1,
			TopK:       "fagin",
		})
		if err != nil {
			t.Fatal(err)
		}
		return sel.Selected
	}
	for _, parallelism := range []int{1, 0} {
		for _, window := range []int{0, -1} {
			name := fmt.Sprintf("par=%d window=%d", parallelism, window)
			on := run(1, parallelism, window)
			off := run(-1, parallelism, window)
			if len(on) == 0 || !equalInts(on, off) {
				t.Fatalf("%s: mont-on selected %v, mont-off selected %v", name, on, off)
			}
		}
	}
}
