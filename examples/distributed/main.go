// Distributed deployment: the five system roles — key server, aggregation
// server, three participants (the first doubling as leader) — each run
// behind their own TCP socket on localhost, exchanging real length-framed
// wire-v1 messages with Paillier-encrypted partial distances. The same topology
// runs across machines with cmd/vfpsnode.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	"vfps"
	"vfps/internal/costmodel"
	"vfps/internal/submod"
	"vfps/internal/transport"
	"vfps/internal/vfl"
)

func main() {
	ctx := context.Background()

	data, err := vfps.GenerateDataset("Rice", 300)
	if err != nil {
		log.Fatal(err)
	}
	partition, err := vfps.VerticalSplit(data, 3, 1)
	if err != nil {
		log.Fatal(err)
	}

	directory := map[string]string{}

	// Key server: generates the Paillier key pair (small modulus for demo
	// speed; use ≥ 2048 bits in production).
	ks, err := vfl.NewKeyServer("paillier", 512)
	if err != nil {
		log.Fatal(err)
	}
	keySrv, err := transport.ListenTCP("127.0.0.1:0", ks.Handler())
	if err != nil {
		log.Fatal(err)
	}
	defer keySrv.Close()
	directory[vfl.KeyServerName] = keySrv.Addr()
	fmt.Printf("key server          %s\n", keySrv.Addr())

	// Participants fetch the public key and serve their local features.
	bootstrap := transport.NewTCPClient(directory)
	defer bootstrap.Close()
	pub, err := vfl.FetchPublicScheme(ctx, bootstrap, vfl.KeyServerName)
	if err != nil {
		log.Fatal(err)
	}
	// Several partial distances ride in each ciphertext; the slot headroom is
	// sized for summing one ciphertext per participant.
	if err := vfl.ConfigurePacking(pub, partition.P()); err != nil {
		log.Fatal(err)
	}
	var partyNames []string
	for i := 0; i < partition.P(); i++ {
		part, err := vfl.NewParticipant(i, partition.Parties[i], pub, 7, vfl.Options{})
		if err != nil {
			log.Fatal(err)
		}
		srv, err := transport.ListenTCP("127.0.0.1:0", part.Handler())
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		name := vfl.PartyName(i)
		directory[name] = srv.Addr()
		partyNames = append(partyNames, name)
		fmt.Printf("participant %d       %s (%d features)\n", i, srv.Addr(), part.Features())
	}

	// Aggregation server: merges rankings with Fagin and sums ciphertexts.
	aggCli := transport.NewTCPClient(directory)
	defer aggCli.Close()
	agg, err := vfl.NewAggServer(aggCli, partyNames, pub, vfl.Options{})
	if err != nil {
		log.Fatal(err)
	}
	aggSrv, err := transport.ListenTCP("127.0.0.1:0", agg.Handler())
	if err != nil {
		log.Fatal(err)
	}
	defer aggSrv.Close()
	directory[vfl.AggServerName] = aggSrv.Addr()
	fmt.Printf("aggregation server  %s\n", aggSrv.Addr())

	// Leader: holds the private key, drives the protocol.
	leaderCli := transport.NewTCPClient(directory)
	defer leaderCli.Close()
	priv, err := vfl.FetchPrivateScheme(ctx, leaderCli, vfl.KeyServerName)
	if err != nil {
		log.Fatal(err)
	}
	leader, err := vfl.NewLeader(leaderCli, vfl.AggServerName, partyNames, priv, 16, vfl.Options{})
	if err != nil {
		log.Fatal(err)
	}

	queries := []int{5, 50, 100, 150, 200, 250}
	fmt.Printf("\nrunning encrypted vertical KNN over %d queries (Paillier, Fagin-pruned)...\n", len(queries))
	rep, err := leader.Similarities(ctx, queries, 5, vfl.VariantFagin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("similarity matrix:")
	for _, row := range rep.W {
		for _, v := range row {
			fmt.Printf("  %.4f", v)
		}
		fmt.Println()
	}
	obj, err := submod.NewFacilityLocation(rep.W)
	if err != nil {
		log.Fatal(err)
	}
	res, err := submod.Greedy(obj, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selected participants: %v (objective %.4f)\n", res.Selected, res.Value)
	fmt.Printf("avg encrypted candidates per query: %.1f of %d\n", rep.AvgCandidates, data.N()-1)

	counts, err := leader.TotalCounts(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol ops: %s\n", counts)
	fmt.Printf("projected time at calibrated HE rates: %.2fs\n", costmodel.Default.Seconds(counts))
}
