package serve

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs              submit a JobSpec        → 201 JobView
//	GET  /v1/jobs/{id}         job status              → 200 JobView
//	GET  /v1/jobs/{id}/stream  NDJSON live step stream → 200 StepRecord*
//	GET  /v1/jobs/{id}/result  full stats payload      → 200 JobResult
//	POST /v1/jobs/{id}/cancel  cancel                  → 200 JobView
//	GET  /v1/healthz           liveness + drain flag   → 200
//	GET  /v1/stats             per-tenant census       → 200
//
// Overload and drain reject submissions with 503; invalid specs are
// 400; submit bodies over maxSubmitBytes are 413; unknown jobs are 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// writeJSON sends one JSON document.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// maxSubmitBytes caps a submit request body. A JobSpec carries its
// geometry inline as XYZ text (~40 bytes per atom), so this admits
// ~100k atoms while bounding what one request can make the server read.
const maxSubmitBytes = 4 << 20

// apiError is the uniform error payload.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{"bad request body: " + err.Error()})
		return
	}
	view, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, view)
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
	}
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"no job " + r.PathValue("id")})
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	view := j.viewLocked()
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	res := JobResult{JobView: j.viewLocked()}
	res.Stats = append(res.Stats, j.stats...)
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.spec.ID); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	j.mu.Lock()
	view := j.viewLocked()
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleStream follows a job live as NDJSON: every completed step as
// one StepRecord line, then one terminal {"status":...} line when the
// job reaches a terminal state. A parked job (server draining) holds
// the stream open until the client gives up or the server exits; the
// re-reported steps of a later resume are not re-sent, because the
// stream indexes by global step.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		j.mu.Lock()
		for next < len(j.stats) {
			enc.Encode(j.stats[next])
			next++
		}
		st, errMsg := j.status, j.errMsg
		update := j.update
		j.mu.Unlock()
		if flusher != nil {
			flusher.Flush()
		}
		if st.terminal() {
			enc.Encode(struct {
				Status Status `json:"status"`
				Error  string `json:"error,omitempty"`
			}{st, errMsg})
			return
		}
		select {
		case <-update:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}{"ok", s.Draining()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	tenants, draining := s.Stats()
	writeJSON(w, http.StatusOK, struct {
		Draining bool                    `json:"draining"`
		Tenants  map[string]TenantCounts `json:"tenants"`
	}{draining, tenants})
}
