// Command predserved serves the simulator over HTTP: a long-running
// prediction/experiment service with a content-addressed result store,
// so many clients sweeping overlapping (spec, trace, options) cells
// pay for each simulation once.
//
//	predserved -addr 127.0.0.1:8149 -store-dir /var/cache/gskew
//
//	curl -s localhost:8149/v1/specs | jq .
//	curl -s -X POST localhost:8149/v1/simulate -d '{
//	    "specs": ["gshare:n=14,k=12", "egskew:n=12,k=12"],
//	    "bench": "groff", "scale": 0.01}' | jq .
//
// Endpoints, cache-key semantics and the wire format are documented in
// the README's Serving section. The obs debug surface (/metrics,
// /debug/vars, /debug/pprof) is mounted on the same listener. On
// SIGTERM or SIGINT the server stops accepting connections, drains
// in-flight requests for up to -drain, then exits 0.
//
// The service is one standalone node: one result store and one trace
// pool, each an in-memory tier over an optional disk directory.
package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gskew/internal/cli"
	"gskew/internal/experiments"
	"gskew/internal/server"
	"gskew/internal/store"
	"gskew/internal/tracepool"
)

func main() { cli.Main("predserved", run) }

// Test hooks: in-process tests (cmd/predserved/main_test.go) set these
// to learn the bound address and to trigger the drain path without
// delivering a real signal. Both are nil in production.
var (
	notifyReady  func(addr string)
	testShutdown <-chan struct{}
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predserved", stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8149", "listen address (host:port; port 0 picks a free one)")
		storeDir   = fs.String("store-dir", "", "on-disk result store directory (empty = memory-only store)")
		memEntries = fs.Int("mem-entries", server.DefaultMemEntries, "result store in-memory tier capacity (entries)")
		jobs       = fs.Int("jobs", 0, "max concurrent simulation passes (0 = GOMAXPROCS)")
		maxBody    = fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit (bytes)")
		timeout    = fs.Duration("timeout", server.DefaultSimTimeout, "per-request simulation queue timeout")
		sessions   = fs.Int("sessions", server.DefaultMaxSessions, "max live /v1/predict sessions (LRU-evicted beyond)")
		poolDir    = fs.String("trace-pool", "", "on-disk trace segment pool directory (empty = memory-only pool)")
		poolMem    = fs.Int("pool-entries", server.DefaultPoolEntries, "trace pool in-memory tier capacity (segments)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful drain window on SIGTERM/SIGINT")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	if *memEntries <= 0 {
		return cli.Usagef("-mem-entries must be positive, got %d", *memEntries)
	}
	if *maxBody <= 0 {
		return cli.Usagef("-max-body must be positive, got %d", *maxBody)
	}
	if *sessions <= 0 {
		return cli.Usagef("-sessions must be positive, got %d", *sessions)
	}
	if *poolMem <= 0 {
		return cli.Usagef("-pool-entries must be positive, got %d", *poolMem)
	}

	st, err := store.Open(*memEntries, *storeDir)
	if err != nil {
		return err
	}
	pool, err := tracepool.Open(*poolMem, *poolDir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := server.New(server.Config{
		Store:        st,
		Sched:        experiments.NewSched(*jobs),
		MaxBodyBytes: *maxBody,
		SimTimeout:   *timeout,
		MaxSessions:  *sessions,
		Pool:         pool,
	})
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(stdout, "predserved listening on http://%s\n", ln.Addr())
	if *storeDir != "" {
		fmt.Fprintf(stderr, "predserved: result store at %s (mem tier %d entries)\n", *storeDir, *memEntries)
	}
	if *poolDir != "" {
		fmt.Fprintf(stderr, "predserved: trace pool at %s (mem tier %d segments)\n", *poolDir, *poolMem)
	}
	if notifyReady != nil {
		notifyReady(ln.Addr().String())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Serve only returns before Shutdown on listener failure.
		return fmt.Errorf("serving: %w", err)
	case s := <-sig:
		fmt.Fprintf(stderr, "predserved: %v, draining (up to %v)\n", s, *drain)
	case <-testShutdown:
		fmt.Fprintf(stderr, "predserved: shutdown requested, draining (up to %v)\n", *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	<-serveErr // reap http.ErrServerClosed
	fmt.Fprintln(stderr, "predserved: drained, exiting")
	return nil
}
