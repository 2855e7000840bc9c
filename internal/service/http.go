package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/program"
)

// The HTTP surface:
//
//	POST   /v1/jobs             submit a JobSpec; 200 on cache hit (result
//	                            ready), 202 queued/deduped, 400 bad spec,
//	                            429 + Retry-After queue full, 503 draining
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result document (the run's Results snapshot
//	                            JSON); 202 while pending, 500 if failed
//	GET    /v1/jobs/{id}/events SSE: progress samples, then a state event
//	DELETE /v1/jobs/{id}        cancel a queued job; 409 if running
//	GET    /healthz             HealthStatus JSON; 200 ok / 503 draining
//	GET    /metrics             MetricsSnapshot JSON
type httpHandler struct {
	s   *Server
	mux *http.ServeMux
}

func newHTTPHandler(s *Server) *httpHandler {
	h := &httpHandler{s: s, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/jobs", h.submit)
	h.mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	h.mux.HandleFunc("GET /v1/jobs/{id}/result", h.result)
	h.mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	h.mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	h.mux.HandleFunc("GET /metrics", h.metrics)
	return h
}

// ServeHTTP implements http.Handler on the server.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (h *httpHandler) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	j, outcome, err := h.s.submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch outcome {
	case outcomeCacheHit:
		writeJSON(w, http.StatusOK, h.s.status(j, false))
	case outcomeQueued:
		writeJSON(w, http.StatusAccepted, h.s.status(j, false))
	case outcomeDeduped:
		writeJSON(w, http.StatusAccepted, h.s.status(j, true))
	case outcomeQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(int(h.s.retryAfter().Seconds())))
		writeError(w, http.StatusTooManyRequests, "queue full (%d jobs)", h.s.queue.Cap())
	case outcomeOverBudget:
		// Unlike queue-full, this is not transient: the same program will be
		// rejected again, so no Retry-After, and the body carries the
		// estimate so the program can be right-sized.
		writeJSON(w, http.StatusTooManyRequests, overBudgetResponse{
			Error:    fmt.Sprintf("program estimated at %d trace ops, over the %d-op admission budget", j.plan.est.Ops, h.s.cfg.MaxProgramOps),
			Estimate: j.plan.est,
			Budget:   h.s.cfg.MaxProgramOps,
		})
	case outcomeDraining:
		// The server is on its way out; Retry-After tells the client to
		// back off briefly.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining")
	}
}

// overBudgetResponse is the 429 body for cost-rejected program jobs.
type overBudgetResponse struct {
	Error    string           `json:"error"`
	Estimate program.Estimate `json:"estimate"`
	Budget   int              `json:"budget"`
}

func (h *httpHandler) job(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := h.s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return j, true
}

func (h *httpHandler) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := h.job(w, r); ok {
		writeJSON(w, http.StatusOK, h.s.status(j, false))
	}
}

func (h *httpHandler) result(w http.ResponseWriter, r *http.Request) {
	j, ok := h.job(w, r)
	if !ok {
		return
	}
	st := h.s.status(j, false)
	switch jobState(st.State) {
	case stateDone:
		h.s.mu.Lock()
		body := j.result
		h.s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Tsoper-Key", st.Key)
		if st.CacheHit {
			w.Header().Set("X-Tsoper-Cache", "hit")
		}
		_, _ = w.Write(body)
	case stateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", st.Error)
	case stateCanceled:
		writeError(w, http.StatusGone, "job canceled")
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (h *httpHandler) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	canceled, state, ok := h.s.cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !canceled && state == stateRunning {
		writeError(w, http.StatusConflict, "job is running and cannot be canceled")
		return
	}
	j, _ := h.s.lookup(id)
	writeJSON(w, http.StatusOK, h.s.status(j, false))
}

// events streams SSE: one "progress" event per sample while the job runs,
// then a single "state" event carrying the terminal JobStatus.
func (h *httpHandler) events(w http.ResponseWriter, r *http.Request) {
	j, ok := h.job(w, r)
	if !ok {
		return
	}
	// Subscribe before the headers go out, so a client that has seen the
	// 200 is guaranteed a live subscription.
	ch, unsubscribe := h.s.subscribe(j)
	defer unsubscribe()

	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		flusher.Flush()
	}

	send := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		if canFlush {
			flusher.Flush()
		}
	}

	for {
		select {
		case p := <-ch:
			send("progress", p)
		case <-j.done:
			// Drain any samples published before the terminal transition.
			for {
				select {
				case p := <-ch:
					send("progress", p)
					continue
				default:
				}
				break
			}
			send("state", h.s.status(j, false))
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (h *httpHandler) healthz(w http.ResponseWriter, _ *http.Request) {
	st := h.s.Health()
	code := http.StatusOK
	if st.State != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

func (h *httpHandler) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.s.Metrics())
}
