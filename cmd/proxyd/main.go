// Command proxyd is the long-running serving layer: it exposes the proxy
// benchmark library over HTTP so proxies can be executed, qualified and
// inspected repeatedly without relaunching a CLI per query.
//
// Usage:
//
//	proxyd [-addr :8080] [-inflight N] [-queue N] [-jobqueue N] [-cache N] [-parallel N]
//	       [-coalesce-window 2ms] [-log-level LEVEL]
//	       [-state-dir DIR] [-snapshot-interval 30s] [-shutdown-timeout 10s]
//	       [-name SHARD] [-peers name=url,...] [-gossip-interval 2s]
//	       [-faults SPEC] [-check-invariants] [-pprof addr]
//
// Endpoints:
//
//	GET  /healthz          liveness
//	GET  /readyz           readiness (503 while restoring or draining)
//	GET  /metrics          request, cache, queue, gossip and durability counters (Prometheus-style)
//	GET  /v1/workloads     servable proxy benchmarks
//	GET  /v1/archs         servable architecture profiles
//	POST /v1/run           execute a proxy: {"workload":"terasort","arch":"westmere","setting":{"dataSize":1.5}}
//	POST /v1/tune          async qualification; poll GET /v1/jobs/{id}
//	GET  /v1/cluster       this replica's shard name and peer health
//	POST /v1/peer/entries  bounded cache-entry exchange between replicas
//
// Identical /v1/run requests coalesce through the server's result cache
// (keyed bit-exactly like the auto-tuner's memo); overload is shed with 429.
// Every cold setting, of a single run or a batch, executes through a
// collection window of its (architecture, benchmark) group: cold single
// runs arriving within -coalesce-window (default 2ms) gather up to 16 lanes
// and execute as one lockstep sweep, and a batch joins the open window and
// seals it — a lone request drains its window immediately, so the window is
// a worst-case latency bound, not a tax.  All /v1 errors carry the
// versioned envelope {"error":{"code":"...","message":"...","retry_after_ms":N}}.
//
// With -log-level the daemon writes one structured (slog) line per request
// to stderr — method, route, status, duration, shard and whether the run
// was coalesced.  Levels: debug, info, warn, error.
//
// With -peers the replica joins a fleet: completed result-cache entries
// gossip to the named peers in bounded batches, so a setting simulated on
// one shard becomes a warm hit everywhere (a received entry never overwrites
// a live local one).  Fleets are usually fronted by proxyrouter, which
// shards requests over replicas by the same memo key the caches use.
//
// With -state-dir the daemon is crash-safe: the result cache and job table
// are snapshotted there periodically and on SIGTERM, and restored at the
// next start — an interrupted tune job is re-enqueued and converges against
// the restored cache.  SIGTERM drains gracefully: new work is shed with 429,
// in-flight work finishes within -shutdown-timeout, then the final snapshot
// is written and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dataproxy/internal/apihttp"
	"dataproxy/internal/faultinject"
	"dataproxy/internal/parallel"
	"dataproxy/internal/perf"
	"dataproxy/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("proxyd: ")
	addr := flag.String("addr", ":8080", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrent proxy simulations (0 = one per host worker)")
	queue := flag.Int("queue", 0, "admission queue depth beyond the in-flight slots (0 = default 16, negative = none)")
	jobQueue := flag.Int("jobqueue", 0, "queued tune jobs before shedding (0 = default 16)")
	cache := flag.Int("cache", 0, "most completed result-cache entries held; beyond it entries are evicted one at a time (0 = default 4096)")
	coalesceWindow := flag.Duration("coalesce-window", 0, "max wait of a cold single run for cross-request batching (0 or negative = default 2ms)")
	logLevel := flag.String("log-level", "", "structured request logging to stderr at this level (debug|info|warn|error); empty disables")
	par := flag.Int("parallel", 0, "host worker count of the shared execution engine (0 = all CPUs, 1 = sequential)")
	stateDir := flag.String("state-dir", "", "directory for crash-safe state snapshots; empty disables persistence")
	snapInterval := flag.Duration("snapshot-interval", 0, "background snapshot cadence with -state-dir (0 = default 30s)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 0, "graceful-drain budget on SIGTERM (0 = default 10s)")
	name := flag.String("name", "", `this replica's shard name, as used in peers' -peers lists (empty = "proxyd")`)
	peers := flag.String("peers", "", `gossip partners as comma-separated name=url pairs, e.g. "s1=http://10.0.0.2:8080,s2=http://10.0.0.3:8080"`)
	gossipInterval := flag.Duration("gossip-interval", 0, "cache-gossip cadence with -peers (0 = default 2s)")
	faults := flag.String("faults", "", `fault-injection spec, e.g. "serve.evaluate=delay:300ms,serve.snapshot.write=error:disk full*2"`)
	checkInvariants := flag.Bool("check-invariants", false, "validate measurement invariants on every simulation (also via DATAPROXY_INVARIANTS=1)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling")
	flag.Parse()
	parallel.SetWorkers(*par)
	if *checkInvariants {
		perf.SetInvariantChecks(true)
	}
	if *faults != "" {
		if err := faultinject.Configure(*faults); err != nil {
			log.Fatal(err)
		}
		log.Printf("fault injection armed: %s", *faults)
	}

	// Opt-in profiling endpoint on its own listener, so production hot paths
	// can be profiled without exposing pprof on the serving address.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pprofMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	peerList, err := parsePeers(*peers)
	if err != nil {
		log.Fatal(err)
	}
	requestLog, err := apihttp.BuildRequestLog(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		MaxInFlight:      *inflight,
		QueueDepth:       *queue,
		JobQueueDepth:    *jobQueue,
		MaxCacheEntries:  *cache,
		CoalesceWindow:   *coalesceWindow,
		RequestLog:       requestLog,
		StateDir:         *stateDir,
		SnapshotInterval: *snapInterval,
		ShutdownTimeout:  *shutdownTimeout,
		Name:             *name,
		Peers:            peerList,
		GossipInterval:   *gossipInterval,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		// Drain before closing the listener: /readyz flips to 503 and new
		// work is shed with 429 while in-flight requests can still finish and
		// be answered, then the final snapshot lands on disk.
		log.Printf("signal received; draining (budget %s)", srv.Config().ShutdownTimeout)
		if err := srv.Drain(context.Background()); err != nil {
			log.Printf("drain: %v", err)
		}
		shutdownCtx, stop := context.WithTimeout(context.Background(), srv.Config().ShutdownTimeout)
		defer stop()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	cfg := srv.Config()
	log.Printf("serving the proxy library on %s (workers=%d, inflight=%d, queue=%d, state-dir=%q)",
		*addr, parallel.Workers(), cfg.MaxInFlight, cfg.QueueDepth, cfg.StateDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// parsePeers parses the -peers flag: comma-separated name=url pairs.
func parsePeers(spec string) ([]serve.Peer, error) {
	if spec == "" {
		return nil, nil
	}
	var out []serve.Peer
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("proxyd: -peers entry %q is not name=url", part)
		}
		out = append(out, serve.Peer{Name: name, URL: strings.TrimRight(url, "/")})
	}
	return out, nil
}
