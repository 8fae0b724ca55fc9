// Command vfpsnode runs one role of a distributed VFPS-SM deployment over
// TCP: the key server, the aggregation server, a participant, or the leader
// that drives selection. Every data-holding node generates its vertical slice
// of the (deterministic) synthetic dataset locally, so no data files need
// distributing.
//
// The leader runs the library's pipeline, core.Select, once per -rounds
// round over core.SampleQueries(rows, -queries, 0): with the same dataset,
// seeds, K and query count it selects exactly what vfps.Consortium.Select
// selects in one process. main_test.go boots every role from run in one test
// process on loopback TCP and checks that identity scenario by scenario.
//
// A five-node Bank deployment on one machine:
//
//	vfpsnode -role keyserver -addr 127.0.0.1:7001 &
//	vfpsnode -role party -index 0 -addr 127.0.0.1:7010 &
//	vfpsnode -role party -index 1 -addr 127.0.0.1:7011 &
//	vfpsnode -role party -index 2 -addr 127.0.0.1:7012 &
//	vfpsnode -role party -index 3 -addr 127.0.0.1:7013 &
//	vfpsnode -role aggserver -addr 127.0.0.1:7002 \
//	    -directory 'keyserver=127.0.0.1:7001,party/0=127.0.0.1:7010,party/1=127.0.0.1:7011,party/2=127.0.0.1:7012,party/3=127.0.0.1:7013' &
//	vfpsnode -role leader -select 2 \
//	    -directory 'keyserver=127.0.0.1:7001,aggserver=127.0.0.1:7002,party/0=127.0.0.1:7010,party/1=127.0.0.1:7011,party/2=127.0.0.1:7012,party/3=127.0.0.1:7013'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vfps/internal/core"
	"vfps/internal/costmodel"
	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/transport"
	"vfps/internal/vfl"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "vfpsnode: %v\n", err)
		os.Exit(1)
	}
}

// node is one parsed vfpsnode invocation: its flags, its peer directory, its
// observer (nil unless -obs-addr or -log-json is set) and where it reports.
type node struct {
	role, addr, scheme, dataset, variant string
	keyBits, index, rows, parties        int
	splitSeed, shuffleSeed               int64
	selCount, k, queries, batch          int
	rounds                               int
	linger                               time.Duration
	opts                                 vfl.Options

	dir    map[string]string
	o      *obs.Observer
	stdout io.Writer
}

// run parses args and runs the role they name until it finishes (the leader)
// or ctx is cancelled (the serving roles). Everything the role started — its
// listeners, its client connections, its randomizer pool, its query log — is
// closed before run returns.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	n := &node{stdout: stdout}
	fs := flag.NewFlagSet("vfpsnode", flag.ContinueOnError)
	fs.StringVar(&n.role, "role", "", "keyserver|aggserver|party|leader")
	fs.StringVar(&n.addr, "addr", "127.0.0.1:0", "listen address (serving roles)")
	directory := fs.String("directory", "", "comma-separated name=host:port peer directory")
	fs.StringVar(&n.scheme, "scheme", "paillier", "protection scheme: paillier|plain")
	fs.IntVar(&n.keyBits, "keybits", 1024, "Paillier modulus bits")
	fs.IntVar(&n.index, "index", 0, "participant index (role=party)")
	fs.StringVar(&n.dataset, "dataset", "Bank", "synthetic dataset name")
	fs.IntVar(&n.rows, "rows", 800, "max dataset rows (0 = all of the dataset's instances)")
	fs.IntVar(&n.parties, "parties", 4, "consortium size")
	fs.Int64Var(&n.splitSeed, "splitseed", 1, "vertical split seed (must match across nodes)")
	fs.Int64Var(&n.shuffleSeed, "shuffleseed", 7, "pseudo-ID shuffle seed (must match across participants)")
	fs.IntVar(&n.selCount, "select", 2, "sub-consortium size (role=leader)")
	fs.IntVar(&n.k, "k", 10, "proxy-KNN neighbour count (role=leader)")
	fs.IntVar(&n.queries, "queries", 32, "query sample count (role=leader)")
	fs.IntVar(&n.batch, "batch", 32, "Fagin mini-batch size (role=leader)")
	fs.StringVar(&n.variant, "variant", "fagin", "KNN variant: fagin|base|threshold (role=leader)")
	obsAddr := fs.String("obs-addr", "", "optional debug listen address serving /metrics, /v1/trace, /v1/slow and /debug/pprof")
	logJSON := fs.String("log-json", "", `structured query-log destination: "-"/"stdout", "stderr", or a file path (off when empty)`)
	slowRing := fs.Int("slow-ring", 0, "flight-recorder capacity for /v1/slow (0 = default)")
	fs.IntVar(&n.rounds, "rounds", 1, "selections to run (role=leader); each round is one full selection and one trace")
	fs.DurationVar(&n.linger, "linger", 0, "how long the leader keeps its obs listener up after finishing, for trace scrapes (role=leader)")
	n.opts.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if n.dir, err = parseDirectory(*directory); err != nil {
		return err
	}

	// Observability is opt-in: without -obs-addr or -log-json every
	// instrument stays a nil no-op. With either, this node's metrics, spans
	// and query log are live; -obs-addr additionally serves them on a
	// separate debug listener.
	if *obsAddr != "" || *logJSON != "" {
		n.o = obs.NewObserver(obs.DefaultTraceCapacity)
		// Tag spans with this process's role so the cross-node span forest
		// shows which process each span ran in.
		nodeName := n.role
		if n.role == "party" {
			nodeName = vfl.PartyName(n.index)
		}
		n.o.Trace.SetNode(nodeName)
		if *logJSON != "" || *slowRing > 0 {
			logw, closeLog, err := obs.OpenLog(*logJSON, stdout)
			if err != nil {
				return err
			}
			defer closeLog()
			n.o.Events = obs.NewQueryLog(logw, *slowRing)
		}
		reg := n.o.Registry()
		transport.DeclareMetrics(reg)
		he.DeclareMetrics(reg)
		costmodel.DeclareMetrics(reg)
		obs.RegisterRuntimeMetrics(reg)
		if *obsAddr != "" {
			ln, err := net.Listen("tcp", *obsAddr)
			if err != nil {
				return fmt.Errorf("obs listener: %w", err)
			}
			dbg := &http.Server{Handler: n.o.Handler(), ReadHeaderTimeout: 5 * time.Second}
			go dbg.Serve(ln)
			defer dbg.Close()
			fmt.Fprintf(stdout, "observability endpoints on http://%s/metrics\n", ln.Addr())
		}
	}

	switch n.role {
	case "keyserver":
		return n.keyServer(ctx)
	case "party":
		return n.party(ctx)
	case "aggserver":
		return n.aggServer(ctx)
	case "leader":
		return n.leader(ctx)
	default:
		return fmt.Errorf("unknown role %q (want keyserver|aggserver|party|leader)", n.role)
	}
}

func (n *node) keyServer(ctx context.Context) error {
	ks, err := vfl.NewKeyServer(n.scheme, n.keyBits)
	if err != nil {
		return err
	}
	return n.serve(ctx, "key server", ks.Handler())
}

func (n *node) party(ctx context.Context) error {
	spec, err := dataset.SpecByName(n.dataset)
	if err != nil {
		return err
	}
	d, err := spec.Generate(n.rows)
	if err != nil {
		return err
	}
	pt, err := dataset.VerticalSplit(d, n.parties, n.splitSeed)
	if err != nil {
		return err
	}
	if n.index < 0 || n.index >= pt.P() {
		return fmt.Errorf("party index %d out of range [0,%d)", n.index, pt.P())
	}
	cli := n.client()
	defer cli.Close()
	pub, err := vfl.FetchPublicScheme(ctx, cli, vfl.KeyServerName)
	if err != nil {
		return fmt.Errorf("fetching public key: %w", err)
	}
	// Parties bulk-encrypt, and lay out slots for the -parties every node
	// shares; the leader sizes its geometry from the directory in NewLeader.
	vfl.ConfigureScheme(pub, n.opts, true)
	if p, ok := pub.(*he.Paillier); ok {
		defer p.Close()
	}
	if err := vfl.ConfigurePacking(pub, pt.P()); err != nil {
		return err
	}
	pub.SetObserver(n.o.Registry(), n.role)
	part, err := vfl.NewParticipant(n.index, pt.Parties[n.index], pub, n.shuffleSeed)
	if err != nil {
		return err
	}
	part.SetObserver(n.o, "node")
	return n.serve(ctx, fmt.Sprintf("participant %d (%d features)", n.index, part.Features()), part.Handler())
}

// aggServer serves the aggregation role over the directory's parties. It only
// adds, but keys the parties' delta-cached blocks by the slot layout the
// whole roster's geometry implies.
func (n *node) aggServer(ctx context.Context) error {
	names, err := partyNames(n.dir, n.parties)
	if err != nil {
		return err
	}
	cli := n.client()
	defer cli.Close()
	pub, err := vfl.FetchPublicScheme(ctx, cli, vfl.KeyServerName)
	if err != nil {
		return fmt.Errorf("fetching public key: %w", err)
	}
	vfl.ConfigureScheme(pub, n.opts, false)
	if err := vfl.ConfigurePacking(pub, len(names)); err != nil {
		return err
	}
	pub.SetObserver(n.o.Registry(), n.role)
	agg, err := vfl.NewAggServer(cli, names, pub, n.opts)
	if err != nil {
		return err
	}
	agg.SetObserver(n.o, "node")
	return n.serve(ctx, fmt.Sprintf("aggregation server (%d participants)", len(names)), agg.Handler())
}

// leader runs -rounds selections through core.Select and reports the last.
// Its queries are the ones vfps.Consortium.Select samples by default: seed 0
// over the rows the parties hold.
func (n *node) leader(ctx context.Context) error {
	spec, err := dataset.SpecByName(n.dataset)
	if err != nil {
		return err
	}
	cli := n.client()
	defer cli.Close()
	priv, err := vfl.FetchPrivateScheme(ctx, cli, vfl.KeyServerName)
	if err != nil {
		return fmt.Errorf("fetching private key: %w", err)
	}
	vfl.ConfigureScheme(priv, n.opts, false)
	priv.SetObserver(n.o.Registry(), n.role)
	names, err := partyNames(n.dir, n.parties)
	if err != nil {
		return err
	}
	leader, err := vfl.NewLeader(cli, vfl.AggServerName, names, priv, n.batch, n.opts)
	if err != nil {
		return err
	}
	leader.SetObserver(n.o, "node")
	cfg := core.Config{
		K:       n.k,
		Queries: core.SampleQueries(spec.Rows(n.rows), n.queries, 0),
		Variant: vfl.Variant(n.variant),
	}
	rounds := max(n.rounds, 1)
	fmt.Fprintf(n.stdout, "running %s-variant selection over %d queries, k=%d, %d round(s)...\n",
		cfg.Variant, len(cfg.Queries), cfg.K, rounds)
	var sel *core.Selection
	for r := 0; r < rounds; r++ {
		if sel, err = core.Select(ctx, leader, n.selCount, cfg); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		fmt.Fprintf(n.stdout, "round %d: %d queries in %.3fs\n", r, sel.QueriesUsed, sel.WallTime.Seconds())
	}
	fmt.Fprintln(n.stdout, "participant similarity matrix:")
	for _, row := range sel.W {
		for _, v := range row {
			fmt.Fprintf(n.stdout, "  %.4f", v)
		}
		fmt.Fprintln(n.stdout)
	}
	fmt.Fprintf(n.stdout, "selected participants: %v (objective %v)\n", sel.Selected, sel.Value)
	fmt.Fprintf(n.stdout, "avg encrypted candidates per query: %.1f\n", sel.AvgCandidates)
	fmt.Fprintf(n.stdout, "total ops (last round): %s\n", sel.Counts)
	fmt.Fprintf(n.stdout, "projected selection time at paper-grade HE: %.2fs\n", sel.ProjectedSeconds)
	if n.linger > 0 {
		fmt.Fprintf(n.stdout, "lingering %s for trace scrapes...\n", n.linger)
		select {
		case <-time.After(n.linger):
		case <-ctx.Done():
		}
	}
	return nil
}

// client opens this node's connections to the directory's peers.
func (n *node) client() *transport.TCPClient {
	cli := transport.NewTCPClient(n.dir)
	cli.SetObserver(n.o)
	return cli
}

// serve answers h on -addr until ctx is cancelled.
func (n *node) serve(ctx context.Context, what string, h transport.Handler) error {
	srv, err := transport.ListenTCP(n.addr, h)
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.SetObserver(n.o)
	fmt.Fprintf(n.stdout, "%s listening on %s\n", what, srv.Addr())
	<-ctx.Done()
	return nil
}

func parseDirectory(s string) (map[string]string, error) {
	dir := map[string]string{}
	if s == "" {
		return dir, nil
	}
	for _, entry := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("bad directory entry %q (want name=host:port)", entry)
		}
		dir[name] = addr
	}
	return dir, nil
}

// partyNames lists the directory's party/<i> entries in index order. They
// must run 0..parties-1 without a gap: the parties split the data and size
// their slots by -parties, so a roster of any other shape would run a
// selection over a different consortium.
func partyNames(dir map[string]string, parties int) ([]string, error) {
	count := 0
	for name := range dir {
		if strings.HasPrefix(name, "party/") {
			count++
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("directory lists no party/<i> entries")
	}
	names := make([]string, count)
	for i := range names {
		names[i] = vfl.PartyName(i)
		if _, ok := dir[names[i]]; !ok {
			return nil, fmt.Errorf("directory lists %d party entries but no %s", count, names[i])
		}
	}
	if count != parties {
		return nil, fmt.Errorf("directory lists %d party/<i> entries but -parties is %d", count, parties)
	}
	return names, nil
}
