// Package apihttp holds the HTTP conventions every dataproxy serving surface
// shares: the indent-2 JSON encoding of responses, the versioned /v1 error
// envelope ({"error":{"code","message","retry_after_ms"}}) with its stable
// code-per-status mapping, the request middleware (Mux: per-route counts,
// the in-flight gauge, the request log, and the fallback that rewrites the
// bare text errors http.ServeMux generates into the same envelope) and the
// strict, size-capped body decoder.  proxyd (internal/serve) and
// proxyrouter (internal/fleet) both build on it, so a client sees one error
// contract no matter which tier answered and an operator one set of request
// series and log fields.
package apihttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"dataproxy/pkg/client"
)

// WriteJSON writes v as indent-2 JSON with the given status.  All /v1
// responses use it, which is what keeps a response's bytes deterministic for
// a given value (and lets tests pin exact encodings).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Error writes the versioned /v1 error envelope with an explicit stable
// code.  A positive retryAfter is mirrored as a Retry-After header (whole
// seconds, rounded up) and as retry_after_ms in the body, so forwarding
// layers and clients read one consistent delay wherever they look.
func Error(w http.ResponseWriter, status int, code client.ErrorCode, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	WriteJSON(w, status, client.ErrorEnvelope{Error: client.ErrorDetail{
		Code:         code,
		Message:      msg,
		RetryAfterMS: retryAfter.Milliseconds(),
	}})
}

// ShedRetryAfter is the delay advertised with every load-shedding (429) or
// unavailable (503) response Fail writes.
const ShedRetryAfter = time.Second

// Fail writes err as the envelope with the default code for status
// (CodeForStatus); shedding statuses (429, 503) carry ShedRetryAfter.
// Handlers needing a non-default code for a status (the draining 429) call
// Error directly.
func Fail(w http.ResponseWriter, status int, err error) {
	var retryAfter time.Duration
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		retryAfter = ShedRetryAfter
	}
	Error(w, status, CodeForStatus(status), err.Error(), retryAfter)
}

// CodeForStatus maps an HTTP status to its default stable error code:
// 400 bad_request, 404 not_found, 429 shed, 503 unavailable, anything else
// internal.
func CodeForStatus(status int) client.ErrorCode {
	switch status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed:
		return client.CodeBadRequest
	case http.StatusNotFound:
		return client.CodeNotFound
	case http.StatusTooManyRequests:
		return client.CodeShed
	case http.StatusServiceUnavailable:
		return client.CodeUnavailable
	}
	return client.CodeInternal
}

// fallbackWriter rewrites the text/plain 404/405 errors http.ServeMux
// generates for unmatched routes and methods into the /v1 error envelope,
// swallowing the original text body, so no path through a server can emit a
// bare-text error body.  Handler-made responses pass through untouched: they
// always set an application/json Content-Type before writing the status.
type fallbackWriter struct {
	http.ResponseWriter
	intercepted bool
}

// WriteHeader substitutes the envelope for mux-generated text errors.
func (fw *fallbackWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(fw.Header().Get("Content-Type"), "application/json") {
		fw.intercepted = true
		code, msg := client.CodeNotFound, "no such route"
		if status == http.StatusMethodNotAllowed {
			code, msg = client.CodeBadRequest, "method not allowed"
		}
		Error(fw.ResponseWriter, status, code, msg, 0)
		return
	}
	fw.ResponseWriter.WriteHeader(status)
}

// Write drops the original text body once the envelope has been substituted.
func (fw *fallbackWriter) Write(p []byte) (int, error) {
	if fw.intercepted {
		return len(p), nil
	}
	return fw.ResponseWriter.Write(p)
}
