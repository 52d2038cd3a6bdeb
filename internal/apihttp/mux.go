package apihttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// MaxBody bounds every request body a dataproxy server reads: run and tune
// bodies are a few kilobytes and a gossip batch a few hundred, so the cap
// only stops hostile or corrupt payloads.
const MaxBody = 8 << 20

// Mux is the request middleware every dataproxy server shares: an
// http.ServeMux whose routes each count their requests, hold the in-flight
// gauge while they run and, when a request logger is set, emit one
// structured line per request.  As a handler it rewrites the mux's own
// unmatched-route and wrong-method errors into the /v1 envelope.
// Register every route before serving.
type Mux struct {
	mux      *http.ServeMux
	log      *slog.Logger
	logAttrs []any
	inFlight atomic.Int64
	routes   []*route // sorted by pattern
}

// route is one registered pattern and its request counter.
type route struct {
	pattern string
	count   atomic.Int64
}

// NewMux returns an empty Mux.  A nil log disables request logging; attrs
// are key/value pairs appended to every request line (proxyd adds its shard
// name).
func NewMux(log *slog.Logger, attrs ...any) *Mux {
	return &Mux{mux: http.NewServeMux(), log: log, logAttrs: attrs}
}

// ServeHTTP dispatches the request to its route.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(&fallbackWriter{ResponseWriter: w}, r)
}

// HandleFunc registers h for pattern (an http.ServeMux pattern such as
// "POST /v1/run") behind the shared middleware.
func (m *Mux) HandleFunc(pattern string, h http.HandlerFunc) {
	rt := &route{pattern: pattern}
	m.routes = append(m.routes, rt)
	sort.Slice(m.routes, func(i, j int) bool { return m.routes[i].pattern < m.routes[j].pattern })
	m.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Add(1)
		defer m.inFlight.Add(-1)
		rt.count.Add(1)
		if m.log == nil {
			h(w, r)
			return
		}
		m.serveLogged(pattern, h, w, r)
	})
}

// serveLogged runs h and logs the request: method, route, status and
// duration, then the Mux's static attributes, then the handler's
// annotations.
func (m *Mux) serveLogged(pattern string, h http.HandlerFunc, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	n := &notes{}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h(sw, r.WithContext(context.WithValue(r.Context(), notesKey{}, n)))
	attrs := append([]any{
		"method", r.Method,
		"route", pattern,
		"status", sw.status,
		"duration_ms", float64(time.Since(start).Microseconds()) / 1000,
	}, m.logAttrs...)
	m.log.Info("request", append(attrs, n.attrs...)...)
}

// WriteMetrics renders the middleware's series under prefix: one
// <prefix>_http_requests_total counter per registered route (sorted, zeros
// included) and the <prefix>_http_in_flight gauge.
func (m *Mux) WriteMetrics(w io.Writer, prefix string) {
	for _, rt := range m.routes {
		fmt.Fprintf(w, "%s_http_requests_total{route=%q} %d\n", prefix, rt.pattern, rt.count.Load())
	}
	fmt.Fprintf(w, "%s_http_in_flight %d\n", prefix, m.inFlight.Load())
}

// notes carries a request's log annotations from its handler back to the
// middleware; notesKey keys it into the request context, and only while
// request logging is on.
type notes struct{ attrs []any }

type notesKey struct{}

// Annotate adds key=value to the request's log line.  It is a no-op when
// request logging is off.  Call it from the request's own goroutine, once
// per key.
func Annotate(ctx context.Context, key string, value any) {
	if n, ok := ctx.Value(notesKey{}).(*notes); ok {
		n.attrs = append(n.attrs, key, value)
	}
}

// statusWriter captures the status code a handler writes, for the request
// log.  Handlers that never call WriteHeader implicitly answer 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// DecodeBody reads the request body, at most MaxBody bytes, and decodes it
// strictly into v: unknown fields are errors, so typos fail loudly instead
// of silently selecting defaults.  It returns the raw bytes, which a router
// forwards verbatim.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBody))
	if err != nil {
		return nil, fmt.Errorf("reading request: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return body, nil
}

// BuildRequestLog resolves a -log-level flag value (debug, info, warn or
// error) into a stderr slog logger for Mux; an empty level disables request
// logging (nil logger).
func BuildRequestLog(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}
