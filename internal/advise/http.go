package advise

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/faultinject"
)

// maxIngestBytes bounds an ingest body (NDJSON batches are compact;
// 8 MiB holds well over the event cap).
const maxIngestBytes = 8 << 20

// CacheHeader reports how a recommend response was produced: "hit",
// "miss" or "bypass". It is a header, not a body field, so response
// bodies stay a pure function of estimator state (the determinism
// contract compares bodies byte-for-byte).
const CacheHeader = "X-Advise-Cache"

// IngestResult is the ingest success body.
type IngestResult struct {
	// Accepted is the number of events applied.
	Accepted int `json:"accepted"`
	// Nodes is the number of distinct (tenant, node) streams touched.
	Nodes int `json:"nodes"`
}

// HandleIngest serves POST /v1/advise/ingest: a batch of NDJSON Event
// lines. The batch is parsed and validated whole, then passed through
// the advise.ingest fault site, then applied atomically — so a failed
// request (fault, limit, bad line) leaves no partial state and a
// straight retry cannot double-count.
func (s *Service) HandleIngest(w http.ResponseWriter, r *http.Request) {
	events, err := decodeBatch(r.Body, s.cfg.MaxBatchEvents)
	if err != nil {
		s.reject()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(events) == 0 {
		s.reject()
		writeError(w, http.StatusBadRequest, "advise: empty batch")
		return
	}
	if err := faultinject.Fire(r.Context(), faultinject.SiteAdviseIngest); err != nil {
		s.reject()
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := s.store.Apply(events); err != nil {
		s.reject()
		status := http.StatusInternalServerError
		if errors.Is(err, ErrTenantLimit) || errors.Is(err, ErrNodeLimit) {
			status = http.StatusTooManyRequests
			// Same backoff contract as the daemon's shed 503 and queue
			// 429: every throttling response carries Retry-After so
			// clients back off uniformly instead of special-casing the
			// advisor (docs/ADVISOR.md).
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%v", err)
		return
	}
	seen := map[[2]string]bool{}
	for i := range events {
		seen[[2]string{events[i].Tenant, events[i].Node}] = true
	}
	writeJSON(w, http.StatusOK, IngestResult{Accepted: len(events), Nodes: len(seen)})
}

// decodeBatch parses the NDJSON body strictly, one event per non-blank
// line: agentLine's shape directly, any other line by encoding/json.
func decodeBatch(body io.ReadCloser, maxEvents int) ([]Event, error) {
	sc := bufio.NewScanner(http.MaxBytesReader(nil, body, maxIngestBytes))
	sc.Buffer(nil, 64*1024) // grows from 4 KiB only as far as a line needs
	var events []Event
	var prev Event // whose strings agentLine reuses
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if len(events) >= maxEvents {
			return nil, fmt.Errorf("advise: batch exceeds %d events", maxEvents)
		}
		ev, ok := agentLine(raw, prev)
		if !ok {
			var slow Event // its own variable: Decode makes it escape
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&slow); err != nil {
				return nil, fmt.Errorf("advise: line %d: %v", line, err)
			}
			if dec.InputOffset() != int64(len(raw)) {
				return nil, fmt.Errorf("advise: line %d: trailing data after event", line)
			}
			ev = slow
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("advise: line %d: %v", line, err)
		}
		events = append(events, ev)
		prev = ev
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("advise: read batch: %v", err)
	}
	return events, nil
}

// agentLine decodes, without encoding/json, the field order node agents
// and tracegen -fault-mix write:
// {"tenant":"N","node":"N","ts_ns":D,"addr":D} with an optional
// ,"bank":D and then an optional ,"synd":"N" before the brace — N
// printable ASCII without quote or backslash, D 1–19 digits without a
// leading zero, in the field's range. A line that differs by a byte is
// declined. A string equal to the previous event's reuses it.
func agentLine(b []byte, prev Event) (Event, bool) {
	b, ok := bytes.CutPrefix(b, []byte(`{"tenant":"`))
	t, b, _ := bytes.Cut(b, []byte(`","node":"`))
	n, b, _ := bytes.Cut(b, []byte(`","ts_ns":`))
	ev := Event{TimeNanos: int64(cutNum(&b, "", math.MaxInt64)), Addr: cutNum(&b, `,"addr":`, math.MaxUint64)}
	if bytes.HasPrefix(b, []byte(`,"bank":`)) {
		ev.Bank = int(cutNum(&b, `,"bank":`, math.MaxInt))
	}
	s, synd := bytes.CutPrefix(b, []byte(`,"synd":"`))
	if synd {
		s, b, _ = bytes.Cut(s, []byte(`"`))
	}
	if !ok || !plainName(t) || !plainName(n) || (synd && !plainName(s)) || string(b) != "}" {
		return Event{}, false
	}
	ev.Tenant, ev.Node = reuse(prev.Tenant, t), reuse(prev.Node, n)
	if synd {
		ev.Syndrome = reuse(prev.Syndrome, s)
	}
	return ev, true
}

// reuse returns prev if it spells b, else a new string of b.
func reuse(prev string, b []byte) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// plainName reports whether name is bytes a JSON string holds verbatim:
// one or more of printable ASCII other than quote and backslash.
func plainName(name []byte) bool {
	for _, c := range name {
		if c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return len(name) > 0
}

// cutNum cuts key and 1–19 digits without a leading zero, at most limit,
// off *b; on a mismatch it sets *b to nil, so every later cut fails.
func cutNum(b *[]byte, key string, limit uint64) uint64 {
	rest, ok := bytes.CutPrefix(*b, []byte(key))
	var v uint64
	d := 0
	for ; d < len(rest) && d < 20 && '0' <= rest[d] && rest[d] <= '9'; d++ {
		v = v*10 + uint64(rest[d]-'0')
	}
	if !ok || d == 0 || d > 19 || (d > 1 && rest[0] == '0') || v > limit {
		*b = nil
		return 0
	}
	*b = rest[d:]
	return v
}

// recommendParams are the recognized recommend query parameters.
var recommendParams = map[string]bool{
	"tenant": true, "node": true, "workload": true, "nodes": true,
	"budget": true, "gib": true, "perevent_ns": true,
	"checkpoint_ns": true, "restart_ns": true,
}

// HandleRecommend serves GET /v1/advise/recommend.
//
// Required: tenant, node. Optional scenario overrides: workload,
// nodes, budget (pct), gib, perevent_ns, checkpoint_ns, restart_ns.
func (s *Service) HandleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var unknown []string
	for k := range q {
		if !recommendParams[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		writeError(w, http.StatusBadRequest, "advise: unknown query parameters %v", unknown)
		return
	}
	tenant, node := q.Get("tenant"), q.Get("node")
	if err := validName("tenant", tenant); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := validName("node", node); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	in := Inputs{
		Workload:   s.cfg.Defaults.Workload,
		Nodes:      s.cfg.Defaults.Nodes,
		BudgetPct:  s.cfg.Defaults.BudgetPct,
		GiBPerNode: s.cfg.Defaults.GiBPerNode,
	}
	if v := q.Get("workload"); v != "" {
		in.Workload = v
	}
	var err error
	if in.Nodes, err = intParam(q, "nodes", in.Nodes); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if in.BudgetPct, err = floatParam(q, "budget", in.BudgetPct); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if in.GiBPerNode, err = floatParam(q, "gib", in.GiBPerNode); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if in.PerEventNanos, err = int64Param(q, "perevent_ns", 0); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if in.CheckpointNanos, err = int64Param(q, "checkpoint_ns", 0); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if in.RestartNanos, err = int64Param(q, "restart_ns", 0); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	rec, outcome, err := s.Recommend(tenant, node, in)
	switch {
	case errors.Is(err, ErrUnknownNode):
		writeError(w, http.StatusNotFound, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set(CacheHeader, outcome)
	writeJSON(w, http.StatusOK, rec)
}

// ErrUnknownNode reports a recommend query for a (tenant, node) the
// store has never seen an event for.
var ErrUnknownNode = errors.New("advise: unknown tenant/node")

// Recommend answers a policy query for one tracked node: look up the
// node's estimator state, quantize it, evaluate (or fetch) the cached
// policy answer, and attach the exact estimate. The returned outcome
// is "hit", "miss" or "bypass".
//
// The cached layer is a pure function of the quantized state and the
// scenario parameters, so cache hits, misses and bypasses produce
// byte-identical bodies — the same bit-identical degradation contract
// the baseline cache's circuit breaker provides for simulations.
func (s *Service) Recommend(tenant, node string, in Inputs) (*Recommendation, string, error) {
	est, cls, ok := s.store.Node(tenant, node)
	if !ok {
		return nil, "", fmt.Errorf("%w: %s/%s has no ingested events", ErrUnknownNode, tenant, node)
	}
	quant := QuantizeMTBCE(est.MTBCENanos)
	in.ObservedMTBCENanos = quant
	in.FaultKnown = cls.Known
	in.Fault = cls.Kind
	// Folded once, to the 3 decimals the key carries, so the entry a
	// key finds was computed from exactly the inputs the key names and
	// the body does not depend on which estimator state filled it. The
	// exact value is reported in estimate.fault_confidence below.
	in.FaultConfidence = math.Round(cls.Confidence*1000) / 1000

	key := cacheKey(in)
	rec, outcome := s.cacheGet(key)
	if rec == nil {
		var err error
		if rec, err = Advise(in); err != nil {
			return nil, "", err
		}
		if s.cache != nil {
			s.cache.Add(key, rec)
		}
	}

	// Shallow-copy the cached evaluation before attaching the exact,
	// node-specific estimate; the cached entry stays shared and
	// immutable.
	out := *rec
	kind := "unknown"
	if cls.Known {
		kind = cls.Kind.String()
	}
	out.Estimate = &NodeEstimate{
		Tenant: tenant, Node: node,
		Estimate:            est,
		MTBCEQuantizedNanos: quant,
		FaultKind:           kind,
		FaultConfidence:     cls.Confidence,
	}
	return &out, outcome, nil
}

// cacheKey canonicalizes the policy-relevant inputs. Fault confidence
// arrives folded to 3 decimals (Recommend), so it cannot fragment the
// cache.
func cacheKey(in Inputs) string {
	return fmt.Sprintf("%s|%d|%g|%g|%d|%d|%t|%d|%.3f|%d|%d",
		in.Workload, in.Nodes, in.BudgetPct, in.GiBPerNode, in.PerEventNanos,
		in.ObservedMTBCENanos, in.FaultKnown, in.Fault, in.FaultConfidence,
		in.CheckpointNanos, in.RestartNanos)
}

func intParam(q map[string][]string, key string, def int) (int, error) {
	vs := q[key]
	if len(vs) == 0 || vs[0] == "" {
		return def, nil
	}
	v, err := strconv.Atoi(vs[0])
	if err != nil {
		return 0, fmt.Errorf("advise: %s: %v", key, err)
	}
	return v, nil
}

func int64Param(q map[string][]string, key string, def int64) (int64, error) {
	vs := q[key]
	if len(vs) == 0 || vs[0] == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(vs[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("advise: %s: %v", key, err)
	}
	return v, nil
}

func floatParam(q map[string][]string, key string, def float64) (float64, error) {
	vs := q[key]
	if len(vs) == 0 || vs[0] == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(vs[0], 64)
	if err != nil {
		return 0, fmt.Errorf("advise: %s: %v", key, err)
	}
	return v, nil
}

// writeJSON mirrors internal/server's encoder settings so advisor
// responses render like every other endpoint.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already sent; nothing useful to do on error
}

// errorBody matches internal/server's error payload, echoing the
// request id the middleware stamped on the response headers.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-Id"),
	})
}
