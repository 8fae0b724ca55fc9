package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestPayloadBenchmark(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{
		Rows:    48,
		Queries: 3,
		K:       3,
		Parties: 3,
		Seed:    1,
		Out:     &buf,
	}
	// Shrunken key width and round count: the real harness runs 512-bit
	// keys over 4 monitoring rounds.
	res, err := payloadAt(context.Background(), opt, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 5 {
		t.Fatalf("want 5 arms, got %d", len(res.Arms))
	}
	byName := map[string]*PayloadArm{}
	for i := range res.Arms {
		a := &res.Arms[i]
		byName[a.Name] = a
		if !a.SelectedMatch {
			t.Errorf("%s: selected a different set than the static baseline", a.Name)
		}
		if len(a.RoundBytes) != res.Rounds || len(a.RoundWire) != res.Rounds {
			t.Fatalf("%s: want %d round byte counts, got %d/%d",
				a.Name, res.Rounds, len(a.RoundBytes), len(a.RoundWire))
		}
		for r, b := range a.RoundBytes {
			if b <= 0 {
				t.Errorf("%s round %d: no payload bytes recorded", a.Name, r+1)
			}
		}
	}
	for _, name := range []string{"static", "adaptive", "chunked", "delta", "full"} {
		if byName[name] == nil {
			t.Fatalf("missing arm %q", name)
		}
	}
	// Delta arms settle into a cheaper steady state than their cold round
	// and record cache hits; knob-off arms never touch the cache.
	last := res.Rounds - 1
	for _, name := range []string{"delta", "full"} {
		a := byName[name]
		if a.RoundBytes[last] >= a.RoundBytes[0] {
			t.Errorf("%s: steady-state round sent %d B, cold round %d B — delta cache not engaged",
				name, a.RoundBytes[last], a.RoundBytes[0])
		}
		if a.CacheHits == 0 {
			t.Errorf("%s: no delta-cache hits recorded", name)
		}
	}
	for _, name := range []string{"static", "adaptive", "chunked"} {
		a := byName[name]
		if a.CacheHits != 0 || a.CacheMisses != 0 {
			t.Errorf("%s: cache counters %d/%d on a knob-off arm", name, a.CacheHits, a.CacheMisses)
		}
	}
	if res.Reduction <= 1 {
		t.Errorf("steady-state reduction %.2fx, want > 1x", res.Reduction)
	}
	if res.TotalReduction <= 1 {
		t.Errorf("all-rounds reduction %.2fx, want > 1x", res.TotalReduction)
	}
	if !strings.Contains(buf.String(), "Ciphertext payload") {
		t.Fatalf("table not printed:\n%s", buf.String())
	}
}
