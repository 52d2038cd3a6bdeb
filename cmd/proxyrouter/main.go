// Command proxyrouter fronts a fleet of proxyd replicas behind the same /v1
// API a single replica serves: requests shard to the consistent-hash owner
// of their trace shape (so the fleet simulates each shape once per sweep,
// or once per task count when its input splits), batches
// split per owner and rejoin in request order, tune jobs return
// shard-prefixed IDs that route their polls back, and a dead replica's
// keyspace fails over to its ring successors with no client-visible 5xx
// while any backend survives.
//
// Usage:
//
//	proxyrouter -backends "s0=http://h0:8080,s1=http://h1:8080,s2=http://h2:8080"
//	            [-addr :8090] [-name proxyrouter] [-probe-interval 1s]
//	            [-log-level LEVEL]
//
// With -log-level the router writes one structured (slog) line per request
// to stderr — method, route, status, duration and the owning shard it
// forwarded to.  Levels: debug, info, warn, error.
//
// Endpoints mirror proxyd: /healthz, /readyz (200 while any backend is
// ready), /metrics (proxyrouter_* exposition), /v1/workloads, /v1/archs,
// /v1/run, /v1/tune, /v1/jobs/{id} and /v1/cluster (role "router", with
// per-backend health and keyspace share).  All errors carry the versioned
// envelope {"error":{"code":"...","message":"...","retry_after_ms":N}}.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dataproxy/internal/apihttp"
	"dataproxy/internal/fleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("proxyrouter: ")
	addr := flag.String("addr", ":8090", "listen address")
	name := flag.String("name", "", `this router's name in /v1/cluster (empty = "proxyrouter")`)
	backends := flag.String("backends", "", `proxyd replicas as comma-separated name=url pairs, e.g. "s0=http://10.0.0.1:8080,s1=http://10.0.0.2:8080"`)
	probeInterval := flag.Duration("probe-interval", 0, "backend /readyz probe cadence (0 = default 1s)")
	logLevel := flag.String("log-level", "", "structured request logging to stderr at this level (debug|info|warn|error); empty disables")
	flag.Parse()

	backendList, err := parseBackends(*backends)
	if err != nil {
		log.Fatal(err)
	}
	requestLog, err := apihttp.BuildRequestLog(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := fleet.NewRouter(fleet.Config{
		Name:          *name,
		Backends:      backendList,
		ProbeInterval: *probeInterval,
		RequestLog:    requestLog,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
		defer stop()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("routing over %d backends on %s", len(backendList), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// parseBackends parses the -backends flag: comma-separated name=url pairs.
func parseBackends(spec string) ([]fleet.Backend, error) {
	if spec == "" {
		fmt.Fprintln(os.Stderr, "proxyrouter: -backends is required")
		flag.Usage()
		os.Exit(2)
	}
	var out []fleet.Backend
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("proxyrouter: -backends entry %q is not name=url", part)
		}
		out = append(out, fleet.Backend{Name: name, URL: strings.TrimRight(url, "/")})
	}
	return out, nil
}
