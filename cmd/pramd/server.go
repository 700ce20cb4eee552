package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// Server is the HTTP/JSON surface over a jobs.Store:
//
//	POST /v1/jobs               submit a jobs.Spec, returns the queued job
//	GET  /v1/jobs               list all jobs in submission order
//	GET  /v1/jobs/{id}          one job record
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	GET  /v1/jobs/{id}/result   the engine result of a done job
//	GET  /v1/jobs/{id}/events   live SSE stream of the job's events
//	GET  /healthz               liveness probe
//	GET  /metrics               the obs registry, Prometheus text format
//
// Everything is stdlib: the mux's method+wildcard patterns do the
// routing, encoding/json the bodies.
type Server struct {
	store *jobs.Store
	reg   *obs.Registry
	mux   *http.ServeMux
}

// NewServer wires the routes over store; reg backs /metrics (nil
// disables it).
func NewServer(store *jobs.Store, reg *obs.Registry) *Server {
	s := &Server{store: store, reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = reg.WriteText(w)
		})
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Mount attaches an extra handler subtree to the daemon's mux (the
// fabric coordinator's /v1/fabric/ surface). Call before serving.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps store errors onto HTTP statuses: unknown job 404,
// wrong state 409, closing store 503, anything else (validation) 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrState):
		status = http.StatusConflict
	case errors.Is(err, jobs.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, err)
		return
	}
	job, err := s.store.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, job)
}

// decodeSpec reads a submitted job spec, refusing unknown fields so a
// misspelled option fails the submit instead of running the default,
// and anything after the spec, so a body holding two specs or a corrupt
// tail is not taken for its first spec.
func decodeSpec(r io.Reader) (jobs.Spec, error) {
	var spec jobs.Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return jobs.Spec{}, fmt.Errorf("decode spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return jobs.Spec{}, errors.New("decode spec: data after the spec")
	}
	if spec.Sweep != nil && len(spec.Sweep.Run) == 0 {
		// An empty experiment list means all of them, as an absent one
		// does; keep the absent form, which is what the job record
		// reads back as.
		spec.Sweep.Run = nil
	}
	return spec, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Job `json:"jobs"`
	}{s.store.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.store.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	job, err := s.store.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, err := s.store.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// handleEvents streams a job's live events as server-sent events: first
// a "job" event carrying the current record, then one unnamed event per
// engine event line (run jobs: the pram sink stream; sweep jobs:
// experiment completions) and per state transition, and finally an
// "end" event when the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.store.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	ch, stop, err := s.store.Subscribe(id)
	if err != nil {
		writeError(w, err)
		return
	}
	defer stop()

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	snapshot, _ := json.Marshal(job)
	fmt.Fprintf(w, "event: job\ndata: %s\n\n", snapshot)
	flusher.Flush()

	for {
		select {
		case line, ok := <-ch:
			if !ok {
				fmt.Fprintf(w, "event: end\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
