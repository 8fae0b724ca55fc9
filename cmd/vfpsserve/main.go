// Command vfpsserve exposes participant selection as a JSON-over-HTTP
// service (see internal/server for the endpoint reference, including the
// /metrics, /v1/trace and /debug observability surface).
//
//	vfpsserve -addr :8080
//	curl -X POST localhost:8080/v1/consortiums -d '{"dataset":"Bank","parties":4}'
//	curl -X POST localhost:8080/v1/consortiums/c1/select -d '{"count":2}'
//	curl localhost:8080/metrics
//
// Admission control (off by default; see internal/server):
//
//	vfpsserve -max-concurrent 4 -queue-depth 8 -tenant-concurrent 2 \
//	          -tenant-he-budget 1000000 -idle-ttl 30m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vfps/internal/obs"
	"vfps/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	logJSON := flag.String("log-json", "", `structured query-log destination: "-"/"stdout", "stderr", or a file path (off when empty)`)
	slowRing := flag.Int("slow-ring", 0, "flight-recorder capacity for /v1/slow (0 = default)")
	peers := flag.String("peers", "", "comma-separated observability base URLs whose spans /v1/trace merges into the span forest")
	maxConcurrent := flag.Int("max-concurrent", 0, "global cap on concurrent selections (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue size when -max-concurrent is reached (full queue → 429)")
	tenantConcurrent := flag.Int("tenant-concurrent", 0, "per-tenant cap on concurrent selections (0 = unlimited)")
	tenantHEBudget := flag.Int64("tenant-he-budget", 0, "per-tenant cumulative HE-operation budget (0 = unlimited)")
	idleTTL := flag.Duration("idle-ttl", 0, "evict consortiums idle for this long (0 = never)")
	flag.Parse()

	opts := server.Options{
		SlowRing: *slowRing,
		Admission: server.AdmissionConfig{
			MaxConcurrent:    *maxConcurrent,
			QueueDepth:       *queueDepth,
			TenantConcurrent: *tenantConcurrent,
			TenantHEBudget:   *tenantHEBudget,
		},
		IdleTTL: *idleTTL,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.TracePeers = append(opts.TracePeers, p)
			}
		}
	}
	logw, closeLog, err := obs.OpenLog(*logJSON, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vfpsserve: %v\n", err)
		os.Exit(1)
	}
	defer closeLog()
	opts.LogWriter = logw

	handler := server.NewWithOptions(opts)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("vfpsserve listening on %s\n", *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "vfpsserve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling so a second ^C kills us
		fmt.Println("vfpsserve: shutting down...")
		// Refuse new selections but let queued ones finish, then wait for
		// both the HTTP layer and the admission layer to drain.
		handler.BeginDrain()
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "vfpsserve: drain deadline exceeded: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		if err := handler.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "vfpsserve: %v\n", err)
			os.Exit(1)
		}
		handler.Close()
	}
}
