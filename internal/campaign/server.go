package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"syscall"
	"time"

	"nasgo/internal/trace"
)

// ServerOptions tunes the HTTP edge. The zero value selects the defaults.
type ServerOptions struct {
	// MaxBodyBytes caps request bodies (default MaxSpecBytes). Oversized
	// submissions get 413 before any decoding.
	MaxBodyBytes int64
	// RequestTimeout bounds every non-streaming request (default 30s);
	// a stuck handler returns 503 instead of holding the connection.
	RequestTimeout time.Duration
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = MaxSpecBytes
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}

// Server is the JSON HTTP API over a Manager. Every edge is defensive: a
// malformed, oversized, or mis-addressed request produces a structured
// 4xx and never perturbs a running campaign.
//
//	POST /campaigns              submit a Spec            → 201 Info
//	GET  /campaigns              list                     → 200 []Info
//	GET  /campaigns/{id}         status                   → 200 Info
//	GET  /campaigns/{id}/log     latest (partial) log     → 200 search.Log
//	GET  /campaigns/{id}/trace   trace JSONL (?since=N)   → 200 JSONL
//	POST /campaigns/{id}/pause   stop at next boundary    → 200 Info
//	POST /campaigns/{id}/resume  continue                 → 200 Info
//	POST /campaigns/{id}/cancel  terminate                → 200 Info
//	GET  /leaderboard            cross-campaign ranking   → 200 []LeaderboardRow
//	GET  /healthz                liveness                 → 200
type Server struct {
	mgr  *Manager
	opts ServerOptions
}

// NewServer wraps a manager in the HTTP API.
func NewServer(mgr *Manager, opts ServerOptions) *Server {
	return &Server{mgr: mgr, opts: opts.withDefaults()}
}

// Handler returns the fully wired route table with the request-timeout
// guard applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/log", s.handleLog)
	mux.HandleFunc("GET /campaigns/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /campaigns/{id}/pause", s.action((*Manager).Pause))
	mux.HandleFunc("POST /campaigns/{id}/resume", s.action((*Manager).Resume))
	mux.HandleFunc("POST /campaigns/{id}/cancel", s.action((*Manager).Cancel))
	mux.HandleFunc("GET /leaderboard", s.handleLeaderboard)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness stays 200 even when degraded — the process is healthy,
		// the storage is not; the body says which.
		writeJSON(w, http.StatusOK, s.mgr.Health())
	})
	// TimeoutHandler buffers responses, which is fine here: every payload
	// is bounded (specs by MaxBodyBytes, traces by traceKeep and
	// the ?since cursor), so handlers cannot stream unboundedly anyway.
	return http.TimeoutHandler(mux, s.opts.RequestTimeout,
		`{"error":"request timed out"}`)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// writeErr maps manager errors onto HTTP statuses: unknown IDs are 404,
// state conflicts 409, drain 503, full disk 507 — the latch or the store's
// own ENOSPC — and anything else the store reports is the server's fault,
// 500 (an invalid spec never gets this far: handleSubmit answers it 422).
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNoSpace), errors.Is(err, syscall.ENOSPC):
		status = http.StatusInsufficientStorage
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	spec, err := DecodeSpec(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", s.opts.MaxBodyBytes)})
		case isSyntax(err):
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		}
		return
	}
	info, err := s.mgr.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+info.ID)
	writeJSON(w, http.StatusCreated, info)
}

// isSyntax distinguishes "not JSON at all" (400) from "valid JSON that is
// not an acceptable spec" (422). Truncated documents surface as
// io.ErrUnexpectedEOF rather than *json.SyntaxError; both are malformed.
func isSyntax(err error) bool {
	var syn *json.SyntaxError
	return errors.As(err, &syn) || errors.Is(err, io.ErrUnexpectedEOF)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	info, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	log, err := s.mgr.Log(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	if log == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: fmt.Sprintf("campaign %s has no log yet (no walltime boundary reached)", id)})
		return
	}
	writeJSON(w, http.StatusOK, log)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	since := int64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: fmt.Sprintf("invalid since cursor %q", q)})
			return
		}
		since = n
	}
	events, next, err := s.mgr.Trace(r.PathValue("id"), since)
	if err != nil {
		writeErr(w, err)
		return
	}
	// JSONL stream plus the cursor to pass as ?since= on the next poll:
	// clients tail a live campaign's trace without re-downloading it.
	w.Header().Set("Content-Type", "application/jsonl")
	w.Header().Set("X-Trace-Next", strconv.FormatInt(next, 10))
	if err := trace.WriteJSONL(w, events); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Leaderboard())
}

// action adapts a manager state transition into a handler.
func (s *Server) action(f func(*Manager, string) (Info, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info, err := f(s.mgr, r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	}
}
