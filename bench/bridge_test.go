package main

import (
	"context"
	"runtime"
	"testing"
)

func TestBridgedClusterSelectsLikeTheInMemoryOne(t *testing.T) {
	ctx := context.Background()
	sh, _ := workloadByName("wide_tcp")
	sh = toy(sh)
	goroutines0 := runtime.NumGoroutine()

	bridged, err := sh.buildCluster(ctx, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh.tcp = false
	local, err := sh.buildCluster(ctx, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bridged.run(ctx, querySeed(7, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.run(ctx, querySeed(7, 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSelection(got, want); err != nil {
		t.Errorf("bridged vs in-memory: %v", err)
	}
	// Byte counts depend on each ciphertext's random leading zeros; op counts
	// do not.
	if g, w := got.Counts, want.Counts; g.Encryptions != w.Encryptions || g.CipherAdds != w.CipherAdds || g.Decryptions != w.Decryptions {
		t.Errorf("bridged counts %v, in-memory %v", g, w)
	}

	if n := len(bridged.bridge.clients); n != sh.parties+1 {
		t.Errorf("%d bridged roles, want the aggregation server and %d parties", n, sh.parties)
	}
	for role, c := range bridged.bridge.clients {
		if c.Stats().Snapshot().BytesSent == 0 {
			t.Errorf("no bytes crossed the socket to %s", role)
		}
	}

	bridged.close()
	local.close()
	if n := leakedGoroutines(goroutines0); n != 0 {
		t.Errorf("%d goroutines left behind after closing the bridge", n)
	}
}
