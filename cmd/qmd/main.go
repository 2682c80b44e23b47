// Command qmd is the queue machine daemon: a long-running HTTP service
// that compiles OCCAM programs and executes them on the simulated
// multiprocessor, with a content-addressed artifact cache, a bounded
// worker pool that sheds overload with 429s, per-request deadlines, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	qmd                          serve on :8344 with defaults
//	qmd -addr :9000 -workers 8   explicit listen address and pool size
//	qmd -log-format json         structured request logs as JSON lines
//	qmd -cache-dir /var/qmd      persist compiled artifacts across restarts
//	qmd -self http://a:8344 -peers http://a:8344,http://b:8344
//	                             join a replica fleet: artifact misses ask
//	                             the owner's memory, then compile locally
//
// Endpoints: POST /compile, POST /run, GET /healthz, GET /statsz,
// GET /metrics (Prometheus text), GET /debugz/traces (the flight
// recorder of recently traced requests), and — with -pprof —
// GET /debug/pprof/*.
// Example:
//
//	curl -s localhost:8344/run -d '{"source": "var v[1]:\nseq\n  v[0] := 42\n", "pes": 4}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"queuemachine/internal/service"
	"queuemachine/internal/xtrace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8344", "listen address")
		workers   = flag.Int("workers", 0, "worker pool size (0: GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "admission queue depth (0: 4x workers)")
		cache     = flag.Int("cache", 128, "artifact cache entries")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxBody   = flag.Int64("max-body", 1<<20, "request body limit in bytes")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
		pprof     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		cacheDir  = flag.String("cache-dir", "", "persist compiled artifacts under this directory (empty: memory only)")
		self      = flag.String("self", "", "this replica's base URL in the peer ring (required with -peers)")
		peers     = flag.String("peers", "", "comma-separated base URLs of all replicas (including -self); empty: no peering")
		slo       = flag.String("slo", "", "per-route latency objectives, e.g. run=2s,compile=500ms (empty: no SLO tracking)")
		traceRing = flag.Int("trace-ring", 0, "flight recorder capacity in traces (0: default 256)")
		traceSlow = flag.Duration("trace-slow", 0, "retain traces at least this slow as outliers (0: default 1s)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: qmd [flags]")
		os.Exit(2)
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "qmd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	objectives, err := xtrace.ParseObjectives(*slo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qmd: -slo: %v\n", err)
		os.Exit(2)
	}
	// The replica's own URL is the most useful process lane name in a
	// stitched multi-replica trace; fall back to the generic default when
	// running unfleeted.
	process := *self
	svc, err := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		EnablePprof:    *pprof,
		CacheDir:       *cacheDir,
		Self:           *self,
		Peers:          peerList,
		Process:        process,
		TraceCapacity:  *traceRing,
		TraceSlow:      *traceSlow,
		SLOs:           objectives,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qmd: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.AccessLog(logger, svc.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(handler, slog.LevelError),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("serving", slog.String("addr", *addr))

	select {
	case err := <-errCh:
		logger.Error("listen", slog.Any("err", err))
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("draining", slog.Duration("budget", *drain))
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("http shutdown", slog.Any("err", err))
	}
	if err := svc.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("drain", slog.Any("err", err))
	}
	logger.Info("bye")
}
