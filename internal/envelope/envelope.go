// Package envelope is the JSON response plumbing of the /v1 surface,
// shared by the prediction server, the cluster router and the ingest
// server: the one error envelope every non-2xx body carries, the shed
// writer that pairs a 429/503 with its Retry-After hint, and the
// middleware that turns the mux's plain-text errors into the envelope.
// It is a leaf package, so ingest speaks the envelope without
// importing the serving layer.
package envelope

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Error is the single error shape every non-2xx response carries: a
// stable machine-readable code, a human-readable message, and an
// optional retry hint for 429/503.
type Error struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Body is the envelope itself:
// {"error":{"code":"...","message":"...","retry_after_ms":...}}.
type Body struct {
	Error Error `json:"error"`
}

// WriteJSON writes body as the JSON response with status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// WriteError writes the envelope with status.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, Body{Error: Error{Code: code, Message: msg}})
}

// WriteShed answers a shed request: status (429 or 503), Retry-After
// set to wait rounded up to whole seconds, and the same wait in the
// envelope's retry_after_ms. Callers jitter wait themselves.
func WriteShed(w http.ResponseWriter, status int, code, msg string, wait time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(int((wait+time.Second-1)/time.Second)))
	WriteJSON(w, status, Body{Error: Error{Code: code, Message: msg, RetryAfterMS: wait.Milliseconds()}})
}

// CodeOf returns the error code of an enveloped body, empty when raw
// is not the envelope.
func CodeOf(raw []byte) string {
	var b Body
	if json.Unmarshal(raw, &b) != nil {
		return ""
	}
	return b.Error.Code
}

// Middleware normalises every error response that did not come from
// this package — the mux's plain-text 404/405 and an
// http.TimeoutHandler's 503 — into the envelope. Responses that already
// declare application/json pass through untouched.
func Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&writer{ResponseWriter: w}, r)
	})
}

type writer struct {
	http.ResponseWriter
	wroteHeader bool
	intercepted bool // the original plain-text body is being discarded
}

func (ew *writer) WriteHeader(status int) {
	if ew.wroteHeader {
		return
	}
	ew.wroteHeader = true
	if status >= 400 && !strings.HasPrefix(ew.Header().Get("Content-Type"), "application/json") {
		ew.intercepted = true
		ew.Header().Del("Content-Length")
		ew.Header().Del("X-Content-Type-Options")
		ew.Header().Set("Content-Type", "application/json")
		ew.ResponseWriter.WriteHeader(status)
		json.NewEncoder(ew.ResponseWriter).Encode(Body{Error: intercepted(status)})
		return
	}
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *writer) Write(b []byte) (int, error) {
	if !ew.wroteHeader {
		ew.WriteHeader(http.StatusOK)
	}
	if ew.intercepted {
		return len(b), nil
	}
	return ew.ResponseWriter.Write(b)
}

// intercepted maps an intercepted status to the envelope contents.
func intercepted(status int) Error {
	switch status {
	case http.StatusNotFound:
		return Error{Code: "not_found", Message: "no such endpoint"}
	case http.StatusMethodNotAllowed:
		return Error{Code: "method_not_allowed", Message: "method not allowed for this endpoint"}
	case http.StatusServiceUnavailable:
		return Error{Code: "deadline_exceeded", Message: "request deadline exceeded"}
	default:
		return Error{Code: "error", Message: http.StatusText(status)}
	}
}
