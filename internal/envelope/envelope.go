// Package envelope is the one JSON envelope of cesimd's HTTP surfaces —
// internal/server's /v1 routes, internal/advise's /v1/advise routes and
// internal/cluster's /cluster protocol: one writer, one error body and
// the request id that ties a response to the daemon's log lines. It is
// a leaf, so every surface can import it.
package envelope

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// RequestIDHeader carries the request id on the wire. Inbound values
// are trusted and propagated (so a cluster worker's shard attempt and
// the coordinator's handler logs share one id); absent, the server
// middleware generates one.
const RequestIDHeader = "X-Request-Id"

// ridKey is the context key for the request id.
type ridKey struct{}

// WithRequestID returns ctx carrying the request id.
func WithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey{}, rid)
}

// RequestIDFrom returns the request id carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// ErrorBody is every non-2xx response body. Code is a machine-readable
// token for errors a client must tell apart without matching message
// text (only the /cluster protocol sets it); RequestID echoes the id
// the middleware stamped on the response, so a client can quote one
// token when reporting a failure.
type ErrorBody struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// Write sends v as two-space-indented JSON with the given status.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already sent; nothing useful to do on error
}

// Error sends err as an ErrorBody tagged with code ("" for none). A
// request body over its route's limit — err wraps an
// *http.MaxBytesError — is answered 413 whatever status says.
func Error(w http.ResponseWriter, status int, code string, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	Write(w, status, ErrorBody{Error: err.Error(), Code: code, RequestID: w.Header().Get(RequestIDHeader)})
}
