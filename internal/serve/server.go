package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dtnsim/internal/core"
	"dtnsim/internal/scenario"
)

// Server is the HTTP face of a Store. Routes:
//
//	GET    /healthz             liveness + run counts
//	POST   /runs                create a run {"spec": {...}, "trace": bool}
//	GET    /runs                list run statuses
//	GET    /runs/{id}           one run's status
//	PATCH  /runs/{id}           reconfigure spec (state "created" only)
//	DELETE /runs/{id}           cancel if active, forget, drop its spool
//	POST   /runs/{id}/start     queue for execution (409 on double start)
//	POST   /runs/{id}/cancel    stop a queued or running run
//	POST   /runs/{id}/workload  {"mean_message_interval": "2m"} mid-run (required; "0s" pauses)
//	GET    /runs/{id}/stream    SSE: run_start / heartbeat / run_end / end
//	GET    /runs/{id}/trace     download the spooled JSONL event trace
//
// Request bodies decode with scenario.Spec's merge semantics: absent
// fields keep scenario.Default(core.SchemeIncentive) values, so a body
// of {"spec":{"nodes":100,"duration":"2h"}} is a complete run.
type Server struct {
	store *Store
	mux   *http.ServeMux
}

// NewServer wraps store in the HTTP API.
func NewServer(store *Store) *Server {
	s := &Server{store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /runs", s.handleCreate)
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleGet)
	s.mux.HandleFunc("PATCH /runs/{id}", s.handleConfigure)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /runs/{id}/start", s.handleStart)
	s.mux.HandleFunc("POST /runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /runs/{id}/workload", s.handleWorkload)
	s.mux.HandleFunc("GET /runs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /runs/{id}/trace", s.handleTrace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr maps store errors onto HTTP status codes.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		code = http.StatusConflict
	case errors.Is(err, ErrNoTrace), errors.Is(err, ErrNotStarted):
		code = http.StatusConflict
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	runs := s.store.List()
	counts := map[State]int{}
	var dropped uint64
	for _, r := range runs {
		st := r.Status()
		counts[st.State]++
		dropped += st.DroppedFrames
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":               "ok",
		"runs":                 len(runs),
		"states":               counts,
		"serve_dropped_frames": dropped,
	})
}

// createRequest is the POST /runs body. Spec starts from
// scenario.Default(core.SchemeIncentive) and merges the body over it.
type createRequest struct {
	Spec  scenario.Spec `json:"spec"`
	Trace bool          `json:"trace"`
}

func decodeCreate(r *http.Request) (createRequest, error) {
	req := createRequest{Spec: scenario.Default(core.SchemeIncentive)}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("serve: bad request body: %w", err)
	}
	return req, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCreate(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	run, err := s.store.Create(req.Spec, req.Trace)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, run.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := s.store.List()
	out := make([]Status, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return run, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if run, ok := s.run(w, r); ok {
		writeJSON(w, http.StatusOK, run.Status())
	}
}

func (s *Server) handleConfigure(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	// Merge the patch over the run's current spec, mirroring create.
	req := createRequest{Spec: run.Spec()}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if err := run.Configure(req.Spec); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, run.Status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Delete(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	if err := s.store.start(run); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	run.Cancel()
	writeJSON(w, http.StatusAccepted, run.Status())
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	// The interval is required: a body without it would decode as 0s,
	// which pauses generation. An explicit "0s" still does.
	var present struct {
		MeanMessageInterval json.RawMessage `json:"mean_message_interval"`
	}
	if err := json.Unmarshal(raw, &present); err != nil {
		writeErr(w, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if present.MeanMessageInterval == nil {
		writeErr(w, fmt.Errorf("serve: bad request body: mean_message_interval is required"))
		return
	}
	// Decode through Spec so the duration accepts both wire forms.
	var body scenario.Spec
	if err := json.Unmarshal(raw, &body); err != nil {
		writeErr(w, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if err := run.SetWorkloadMeanInterval(body.MeanMessageInterval); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Status())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	frames, unsubscribe := run.hub.subscribe()
	defer unsubscribe()
	for {
		select {
		case f, open := <-frames:
			if !open {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.event, f.data)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	path, err := run.TracePath()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	http.ServeFile(w, r, path)
}
