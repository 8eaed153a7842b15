package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llm4em"
	"llm4em/internal/telemetry"
)

// server exposes a resolution store over HTTP JSON. The canonical API
// lives under the /v1 prefix:
//
//	POST /v1/records       {"records":[{"id","attrs":[{"name","value"}]}]} — ingest
//	POST /v1/resolve       {"id","attrs":[...]} — resolve one query record
//	GET  /v1/entities/{id} — entity group containing the ID
//	GET  /v1/stats         — store and engine counters (JSON)
//	GET  /v1/metrics       — Prometheus text exposition
//	GET  /v1/healthz       — liveness: store can still serve mutations
//	GET  /v1/readyz        — readiness: recovery/preload done and store live
type server struct {
	store *llm4em.Store
	tel   *llm4em.Telemetry
	log   *slog.Logger
	ready *atomic.Bool
	// resolveTimeout bounds each POST /v1/resolve; zero means unbounded.
	resolveTimeout time.Duration

	// statsMu/statsIn single-flight concurrent GET /v1/stats calls: the
	// snapshot walks every shard and several locks, so simultaneous
	// scrapers share one computation instead of piling onto the store.
	// Sequential calls always compute fresh.
	statsMu sync.Mutex
	statsIn *statsCall
}

// handlerConfig wires the pieces of the HTTP front end together.
type handlerConfig struct {
	store *llm4em.Store
	// tel carries the process metrics; the HTTP layer registers its
	// request families on the same registry so GET /v1/metrics covers
	// everything. Nil disables HTTP metrics and tracing IDs still work.
	tel *llm4em.Telemetry
	// log receives per-request access lines. Nil falls back to
	// slog.Default().
	log *slog.Logger
	// ready gates GET /v1/readyz; nil means always ready.
	ready *atomic.Bool
	// resolveTimeout caps each POST /v1/resolve's wall clock (the
	// -resolve-timeout flag); zero leaves requests unbounded. The
	// deadline propagates through the store into in-flight LLM calls;
	// with the resilience layer enabled an expired escalation degrades
	// to a deferred local verdict instead of failing the request.
	resolveTimeout time.Duration
}

// newHandler wires the endpoints onto a mux.
func newHandler(cfg handlerConfig) http.Handler {
	if cfg.log == nil {
		cfg.log = slog.Default()
	}
	if cfg.ready == nil {
		cfg.ready = &atomic.Bool{}
		cfg.ready.Store(true)
	}
	s := &server{store: cfg.store, tel: cfg.tel, log: cfg.log, ready: cfg.ready,
		resolveTimeout: cfg.resolveTimeout}
	mux := http.NewServeMux()
	routes := []struct {
		method, path, name string
		h                  http.HandlerFunc
	}{
		{"POST", "/records", "records", s.addRecords},
		{"POST", "/resolve", "resolve", s.resolve},
		{"GET", "/entities/{id}", "entities", s.entity},
		{"GET", "/stats", "stats", s.stats},
		{"GET", "/metrics", "metrics", s.metrics},
		{"GET", "/healthz", "healthz", s.healthz},
		{"GET", "/readyz", "readyz", s.readyz},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1"+rt.path, s.instrument(rt.name, rt.h))
	}
	return mux
}

// probeRoutes are scraped/polled constantly; their access lines log at
// Debug so steady-state logs stay readable.
var probeRoutes = map[string]bool{"metrics": true, "healthz": true, "readyz": true, "stats": true}

// statusWriter captures the response status for metrics and the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the cross-cutting request concerns:
// X-Request-ID propagation (inbound header reused, otherwise a fresh
// trace ID), a telemetry.Trace in the request context so
// ResolveContext records per-stage spans under the same ID, a
// per-route latency histogram and status-class counters on the shared
// registry, and a structured access log line carrying the trace ID.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	var hist *telemetry.Histogram
	var classes map[int]*telemetry.Counter
	if reg := s.tel.Registry(); reg != nil {
		hist = reg.Histogram("em_http_request_seconds",
			"HTTP request latency by route", telemetry.DurationBuckets(), "route", route)
		classes = map[int]*telemetry.Counter{}
		for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
			classes[int(class[0]-'0')] = reg.Counter("em_http_responses_total",
				"HTTP responses by route and status class", "class", class, "route", route)
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tr := llm4em.NewTrace(r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", tr.ID())
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(llm4em.ContextWithTrace(r.Context(), tr)))
		elapsed := time.Since(t0)
		hist.Observe(elapsed.Seconds())
		if c, ok := classes[sw.status/100]; ok {
			c.Inc()
		}
		level := slog.LevelInfo
		if probeRoutes[route] {
			level = slog.LevelDebug
		}
		s.log.LogAttrs(r.Context(), level, "request",
			slog.String("trace_id", tr.ID()),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
		)
	}
}

// Wire form of an entity record. Attributes are an ordered list
// because serialization concatenates values in schema order.
type recordJSON struct {
	ID    string     `json:"id"`
	Attrs []attrJSON `json:"attrs"`
}

type attrJSON struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

func (r recordJSON) toRecord() llm4em.Record {
	rec := llm4em.Record{ID: r.ID}
	for _, a := range r.Attrs {
		rec.Attrs = append(rec.Attrs, llm4em.Attr{Name: a.Name, Value: a.Value})
	}
	return rec
}

func fromRecord(r llm4em.Record) recordJSON {
	out := recordJSON{ID: r.ID, Attrs: []attrJSON{}}
	for _, a := range r.Attrs {
		out.Attrs = append(out.Attrs, attrJSON{Name: a.Name, Value: a.Value})
	}
	return out
}

type decisionJSON struct {
	CandidateID string  `json:"candidate_id"`
	BlockScore  float64 `json:"block_score"`
	Probability float64 `json:"probability"`
	Match       bool    `json:"match"`
	Method      string  `json:"method"`
	Answer      string  `json:"answer,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	Batched     bool    `json:"batched,omitempty"`
	Journaled   bool    `json:"journaled,omitempty"`
	Deferred    bool    `json:"deferred,omitempty"`
}

type costJSON struct {
	Candidates       int          `json:"candidates"`
	LocalAccepts     int          `json:"local_accepts"`
	LocalRejects     int          `json:"local_rejects"`
	LLMPairs         int          `json:"llm_pairs"`
	CacheHits        int          `json:"cache_hits"`
	BatchedPairs     int          `json:"batched_pairs,omitempty"`
	Batches          int          `json:"batches,omitempty"`
	BatchFallbacks   int          `json:"batch_fallbacks,omitempty"`
	GroupFallbacks   int          `json:"group_fallbacks,omitempty"`
	BudgetDecided    int          `json:"budget_decided"`
	DeferredPairs    int          `json:"deferred_pairs,omitempty"`
	JournalHits      int          `json:"journal_hits"`
	PromptTokens     int          `json:"prompt_tokens"`
	CompletionTokens int          `json:"completion_tokens"`
	Cents            float64      `json:"cents"`
	Priced           bool         `json:"priced"`
	LocalFraction    float64      `json:"local_fraction"`
	Strategies       strategyJSON `json:"strategies"`
}

// strategyJSON breaks LLM usage down by the prompt strategy that
// issued it, mirroring CostReport's per-strategy StrategyUsage fields.
type strategyJSON struct {
	Match   usageJSON `json:"match"`
	Compare usageJSON `json:"compare"`
	Select  usageJSON `json:"select"`
	Reason  usageJSON `json:"reason"`
}

type usageJSON struct {
	Calls            uint64 `json:"calls"`
	Pairs            uint64 `json:"pairs"`
	PromptTokens     uint64 `json:"prompt_tokens"`
	CompletionTokens uint64 `json:"completion_tokens"`
}

func fromUsage(u llm4em.StrategyUsage) usageJSON {
	return usageJSON{
		Calls:            uint64(u.Calls),
		Pairs:            uint64(u.Pairs),
		PromptTokens:     uint64(u.PromptTokens),
		CompletionTokens: uint64(u.CompletionTokens),
	}
}

func fromTotals(t llm4em.StrategyTotals) usageJSON {
	return usageJSON{
		Calls:            t.Calls,
		Pairs:            t.Pairs,
		PromptTokens:     t.PromptTokens,
		CompletionTokens: t.CompletionTokens,
	}
}

func fromCost(c llm4em.CostReport) costJSON {
	return costJSON{
		Candidates:       c.Candidates,
		LocalAccepts:     c.LocalAccepts,
		LocalRejects:     c.LocalRejects,
		LLMPairs:         c.LLMPairs,
		CacheHits:        c.CacheHits,
		BatchedPairs:     c.BatchedPairs,
		Batches:          c.Batches,
		BatchFallbacks:   c.BatchFallbacks,
		GroupFallbacks:   c.GroupFallbacks,
		BudgetDecided:    c.BudgetDecided,
		DeferredPairs:    c.DeferredPairs,
		JournalHits:      c.JournalHits,
		PromptTokens:     c.PromptTokens,
		CompletionTokens: c.CompletionTokens,
		Cents:            c.Cents,
		Priced:           c.Priced,
		LocalFraction:    c.LocalFraction(),
		Strategies: strategyJSON{
			Match:   fromUsage(c.MatchUsage),
			Compare: fromUsage(c.CompareUsage),
			Select:  fromUsage(c.SelectUsage),
			Reason:  fromUsage(c.ReasonUsage),
		},
	}
}

// addRecords handles POST /v1/records. Accepted bodies:
//
//	{"records":[{...},...]}   wrapper object (original form)
//	[{...},...]               bare JSON array of records
//	{...}                     single record object
//	{...}\n{...}\n            NDJSON (Content-Type application/x-ndjson)
//
// Every form routes through Store.AddBatch, so a bulk ingest pays one
// handler and one lock round-trip per shard instead of one per
// record.
func (s *server) addRecords(w http.ResponseWriter, r *http.Request) {
	recs, err := decodeRecordsBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(recs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no records in body"))
		return
	}
	batch := make([]llm4em.Record, len(recs))
	for i, rj := range recs {
		batch[i] = rj.toRecord()
	}
	if err := s.store.AddBatch(batch); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, llm4em.ErrDuplicateRecordID) {
			status = http.StatusConflict
		}
		added := 0
		var be *llm4em.BatchError
		if errors.As(err, &be) {
			added = be.Added
		}
		writeError(w, status, fmt.Errorf("after %d added: %w", added, err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"added":   len(batch),
		"records": s.store.Len(),
	})
}

// decodeRecordsBody parses the accepted POST /v1/records body shapes
// into a record list.
func decodeRecordsBody(r *http.Request) ([]recordJSON, error) {
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		dec := json.NewDecoder(r.Body)
		var out []recordJSON
		for {
			var rec recordJSON
			if err := dec.Decode(&rec); err == io.EOF {
				return out, nil
			} else if err != nil {
				return nil, fmt.Errorf("decode ndjson record %d: %w", len(out)+1, err)
			}
			out = append(out, rec)
		}
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var out []recordJSON
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, fmt.Errorf("decode record array: %w", err)
		}
		return out, nil
	}
	// An object: either the {"records":[...]} wrapper or one record.
	var obj struct {
		Records []recordJSON `json:"records"`
		ID      string       `json:"id"`
		Attrs   []attrJSON   `json:"attrs"`
	}
	if err := json.Unmarshal(body, &obj); err != nil {
		return nil, fmt.Errorf("decode body: %w", err)
	}
	if obj.Records != nil {
		return obj.Records, nil
	}
	if obj.ID != "" || obj.Attrs != nil {
		return []recordJSON{{ID: obj.ID, Attrs: obj.Attrs}}, nil
	}
	return nil, nil
}

// resolve handles POST /v1/resolve. The request context carries the
// trace the instrument middleware attached, so the store's per-stage
// spans land under this request's X-Request-ID.
func (s *server) resolve(w http.ResponseWriter, r *http.Request) {
	var body recordJSON
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return
	}
	ctx := r.Context()
	if s.resolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.resolveTimeout)
		defer cancel()
	}
	res, err := s.store.ResolveContext(ctx, body.toRecord())
	if err != nil {
		// Malformed queries are the caller's fault, shed load asks the
		// client to back off, an expired deadline is a gateway timeout;
		// anything else is a matching-backend failure.
		status := http.StatusBadGateway
		switch {
		case errors.Is(err, llm4em.ErrNoRecordID):
			status = http.StatusBadRequest
		case errors.Is(err, llm4em.ErrOverloaded):
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, err)
		return
	}
	decisions := make([]decisionJSON, len(res.Decisions))
	for i, d := range res.Decisions {
		decisions[i] = decisionJSON{
			CandidateID: d.CandidateID,
			BlockScore:  d.BlockScore,
			Probability: d.Probability,
			Match:       d.Match,
			Method:      string(d.Method),
			Answer:      d.Answer,
			Cached:      d.Cached,
			Batched:     d.Batched,
			Journaled:   d.Journaled,
			Deferred:    d.Deferred,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"query_id":  res.Query.ID,
		"entity_id": res.EntityID,
		"matched":   res.Matched(),
		"members":   res.Members,
		"decisions": decisions,
		"cost":      fromCost(res.Cost),
	})
}

// entity handles GET /v1/entities/{id}.
func (s *server) entity(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	members, ok := s.store.Entity(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown ID %q", id))
		return
	}
	records := []recordJSON{}
	entityID := members[0]
	for _, m := range members {
		if rec, stored := s.store.Record(m); stored {
			records = append(records, fromRecord(rec))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"entity_id": entityID,
		"members":   members,
		"records":   records,
	})
}

// statsCall is one in-flight Stats snapshot shared by concurrent
// GET /v1/stats callers.
type statsCall struct {
	done chan struct{}
	val  llm4em.StoreStats
}

// snapshotStats returns a store stats snapshot, coalescing concurrent
// callers onto a single computation. The result of a shared call is
// at most one snapshot old — never cached across sequential requests.
func (s *server) snapshotStats() llm4em.StoreStats {
	s.statsMu.Lock()
	if c := s.statsIn; c != nil {
		s.statsMu.Unlock()
		<-c.done
		return c.val
	}
	c := &statsCall{done: make(chan struct{})}
	s.statsIn = c
	s.statsMu.Unlock()

	c.val = s.store.Stats()

	s.statsMu.Lock()
	s.statsIn = nil
	s.statsMu.Unlock()
	close(c.done)
	return c.val
}

// stats handles GET /v1/stats.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	st := s.snapshotStats()
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, map[string]any{
		"records":           st.Records,
		"entities":          st.Entities,
		"resolves":          st.Resolves,
		"candidate_pairs":   st.Candidates,
		"local_accepts":     st.LocalAccepts,
		"local_rejects":     st.LocalRejects,
		"llm_pairs":         st.LLMPairs,
		"batched_pairs":     st.BatchedPairs,
		"batch_fallbacks":   st.BatchFallbacks,
		"group_fallbacks":   st.GroupFallbacks,
		"budget_decided":    st.BudgetDecided,
		"journal_hits":      st.JournalHits,
		"local_fraction":    st.LocalFraction(),
		"prompt_tokens":     st.PromptTokens,
		"completion_tokens": st.CompletionTokens,
		"cents":             st.Cents,
		"priced":            st.Priced,
		"strategies": strategyJSON{
			Match:   fromTotals(st.MatchStrategy),
			Compare: fromTotals(st.CompareStrategy),
			Select:  fromTotals(st.SelectStrategy),
			Reason:  fromTotals(st.ReasonStrategy),
		},
		"engine": map[string]any{
			"client_calls": st.Engine.ClientCalls,
			"cache_hits":   st.Engine.CacheHits,
			"retries":      st.Engine.Retries,
		},
		"dispatch": map[string]any{
			"enabled":            st.Dispatch.Enabled,
			"batches":            st.Dispatch.Batches,
			"batched_pairs":      st.Dispatch.BatchedPairs,
			"mean_batch_size":    st.Dispatch.MeanBatchSize(),
			"single_pair_calls":  st.Dispatch.SinglePairCalls,
			"parse_fallbacks":    st.Dispatch.ParseFallbacks,
			"fallback_pairs":     st.Dispatch.FallbackPairs,
			"single_flight_hits": st.Dispatch.SingleFlightHits,
			"group_calls":        st.Dispatch.GroupCalls,
			"grouped_pairs":      st.Dispatch.GroupedPairs,
			"group_fallbacks":    st.Dispatch.GroupParseFallbacks,
			"group_fb_pairs":     st.Dispatch.GroupFallbackPairs,
			"cache_hits":         st.Dispatch.CacheHits,
			"size_flushes":       st.Dispatch.SizeFlushes,
			"deadline_flushes":   st.Dispatch.DeadlineFlushes,
			"drain_flushes":      st.Dispatch.DrainFlushes,
		},
		"resilience": map[string]any{
			"enabled":        st.Resilience.Enabled,
			"breaker_state":  st.Resilience.BreakerState,
			"breaker_trips":  st.Resilience.BreakerTrips,
			"shed":           st.Resilience.Shed,
			"in_flight":      st.Resilience.InFlight,
			"waiting":        st.Resilience.Waiting,
			"deferred_queue": st.Resilience.DeferredQueue,
			"deferred_pairs": st.Resilience.DeferredPairs,
			"redecided":      st.Resilience.Redecided,
		},
		"persist": map[string]any{
			"enabled":             st.Persist.Enabled,
			"dir":                 st.Persist.Dir,
			"recovered_records":   st.Persist.RecoveredRecords,
			"recovered_decisions": st.Persist.RecoveredDecisions,
			"recovered_resolves":  st.Persist.RecoveredResolves,
			"truncated_tail":      st.Persist.TruncatedTail,
			"wal_entries":         st.Persist.WALEntries,
			"wal_bytes":           st.Persist.WALBytes,
			"snapshots":           st.Persist.Snapshots,
			"journal_size":        st.Persist.JournalSize,
			"journal_hits":        st.Persist.JournalHits,
		},
		"telemetry": s.telemetryJSON(),
	})
}

// telemetryJSON surfaces the headline telemetry counters in the JSON
// stats for callers that do not scrape /metrics. All reads are
// nil-safe, so a telemetry-less server reports zeros with
// "enabled": false.
func (s *server) telemetryJSON() map[string]any {
	t := s.tel
	out := map[string]any{"enabled": t != nil}
	if t == nil {
		return out
	}
	out["resolve_total"] = t.ResolveTotal.Value()
	out["resolve_errors"] = t.ResolveErrors.Value()
	out["slow_resolves"] = t.SlowResolves.Value()
	out["resolve_p50_ms"] = t.ResolveSeconds.Quantile(0.50) * 1e3
	out["resolve_p95_ms"] = t.ResolveSeconds.Quantile(0.95) * 1e3
	out["resolve_p99_ms"] = t.ResolveSeconds.Quantile(0.99) * 1e3
	return out
}

// metrics handles GET /v1/metrics: the Prometheus text exposition of
// every registered family (empty without telemetry).
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	_ = s.tel.WritePrometheus(w)
}

// healthz handles GET /v1/healthz: 200 while the store can serve
// mutations, 503 once the dispatcher or WAL has been closed.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	if !s.store.Live() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "closed"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz handles GET /v1/readyz: 200 once recovery/preload finished and
// the store is live — the gate for load balancers and rollout probes.
// A store serving degraded (LLM breaker open, uncertain pairs
// answered locally and deferred) stays ready — pulling the replica
// would turn a partial outage into a total one — but the response is
// annotated so operators and rollout tooling can see the mode.
func (s *server) readyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || !s.store.Live() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
		return
	}
	body := map[string]string{"status": "ready"}
	if mode := s.store.Degraded(); mode != "" {
		body["degraded"] = mode
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
