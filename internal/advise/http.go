package advise

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"

	"repro/internal/envelope"
	"repro/internal/faultinject"
)

// maxIngestBytes bounds an ingest body (NDJSON batches are compact;
// 8 MiB holds well over the event cap).
const maxIngestBytes = 8 << 20

// CacheHeader reports how a recommend response was produced: "hit" or
// "miss". It is a header, not a body field, so response
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
		s.rejects.Add(1)
		envelope.Error(w, http.StatusBadRequest, "", err)
		return
	}
	if len(events) == 0 {
		s.rejects.Add(1)
		envelope.Error(w, http.StatusBadRequest, "", errors.New("advise: empty batch"))
		return
	}
	if err := faultinject.Fire(r.Context(), faultinject.SiteAdviseIngest); err != nil {
		s.rejects.Add(1)
		envelope.Error(w, http.StatusInternalServerError, "", err)
		return
	}
	if err := s.store.Apply(events); err != nil {
		s.rejects.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, ErrTenantLimit) || errors.Is(err, ErrNodeLimit) {
			status = http.StatusTooManyRequests
			// Same backoff contract as the daemon's shed 503 and queue
			// 429: every throttling response carries Retry-After so
			// clients back off uniformly instead of special-casing the
			// advisor (docs/ADVISOR.md).
			w.Header().Set("Retry-After", "1")
		}
		envelope.Error(w, status, "", err)
		return
	}
	seen := map[[2]string]bool{}
	for i := range events {
		seen[[2]string{events[i].Tenant, events[i].Node}] = true
	}
	envelope.Write(w, http.StatusOK, IngestResult{Accepted: len(events), Nodes: len(seen)})
}

// decodeBatch parses the NDJSON body strictly, one event per non-blank
// line: agentLine's shape directly, any other line by envelope.Decode.
func decodeBatch(body io.ReadCloser, maxEvents int) ([]Event, error) {
	sc := bufio.NewScanner(http.MaxBytesReader(nil, body, maxIngestBytes))
	sc.Buffer(nil, 64*1024) // grows from 4 KiB only as far as a line needs
	var events []Event
	var prev Event // whose strings agentLine reuses
	line := 0
	for sc.Scan() {
		if sc.Err() != nil {
			break // the body overran its limit: report that, not the line it cut
		}
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
			if err := envelope.Decode(bytes.NewReader(raw), &slow); err != nil {
				return nil, fmt.Errorf("advise: line %d: %v", line, err)
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
		return nil, fmt.Errorf("advise: read batch: %w", err)
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

// HandleRecommend serves GET /v1/advise/recommend.
//
// Required: tenant, node. Optional scenario overrides: workload,
// nodes, budget (pct), gib, perevent_ns, checkpoint_ns, restart_ns.
func (s *Service) HandleRecommend(w http.ResponseWriter, r *http.Request) {
	tenant, node, in, err := s.parseRecommend(r.URL.Query())
	if err != nil {
		envelope.Error(w, http.StatusBadRequest, "", err)
		return
	}
	rec, outcome, err := s.Recommend(tenant, node, in)
	switch {
	case errors.Is(err, ErrUnknownNode):
		envelope.Error(w, http.StatusNotFound, "", err)
		return
	case err != nil:
		envelope.Error(w, http.StatusBadRequest, "", err)
		return
	}
	w.Header().Set(CacheHeader, outcome)
	envelope.Write(w, http.StatusOK, rec)
}

// recommendParams are the recommend query parameters, in the order a
// query is checked: the node's names, then the scenario overrides.
var recommendParams = []string{"tenant", "node",
	"workload", "nodes", "budget", "gib", "perevent_ns", "checkpoint_ns", "restart_ns"}

// parseRecommend reads a recommend query into the node it names and the
// scenario, the service's defaults standing where the query is silent.
// The first problem found is the error: unknown parameters, then the
// names, then the overrides in recommendParams order.
func (s *Service) parseRecommend(q url.Values) (tenant, node string, in Inputs, err error) {
	var unknown []string
	for k := range q {
		if !slices.Contains(recommendParams, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return "", "", in, fmt.Errorf("advise: unknown query parameters %v", unknown)
	}
	tenant, node = q.Get("tenant"), q.Get("node")
	if err = validName("tenant", tenant); err == nil {
		err = validName("node", node)
	}
	if err != nil {
		return "", "", in, err
	}
	in = Inputs{
		Workload:   DefaultWorkload,
		Nodes:      DefaultNodes,
		BudgetPct:  DefaultBudgetPct,
		GiBPerNode: DefaultGiBPerNode,
	}
	for _, key := range recommendParams[2:] {
		v := q.Get(key)
		if v == "" {
			continue // the default stands
		}
		switch key {
		case "workload":
			in.Workload = v
		case "nodes":
			in.Nodes, err = strconv.Atoi(v)
		case "budget":
			in.BudgetPct, err = strconv.ParseFloat(v, 64)
		case "gib":
			in.GiBPerNode, err = strconv.ParseFloat(v, 64)
		case "perevent_ns":
			in.PerEventNanos, err = strconv.ParseInt(v, 10, 64)
		case "checkpoint_ns":
			in.CheckpointNanos, err = strconv.ParseInt(v, 10, 64)
		case "restart_ns":
			in.RestartNanos, err = strconv.ParseInt(v, 10, 64)
		}
		if err != nil {
			return "", "", in, fmt.Errorf("advise: %s: %v", key, err)
		}
	}
	return tenant, node, in, nil
}

// ErrUnknownNode reports a recommend query for a (tenant, node) the
// store has never seen an event for.
var ErrUnknownNode = errors.New("advise: unknown tenant/node")

// Recommend answers a policy query for one tracked node: look up the
// node's estimator state, quantize it, evaluate (or fetch) the cached
// policy answer, and attach the exact estimate. The returned outcome
// is "hit" or "miss".
//
// The cached layer is a pure function of the quantized state and the
// scenario parameters, so a hit and a miss produce byte-identical
// bodies: the cache holds exactly what Advise computes.
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

	rec, hit, err := s.cache.GetOrBuild(context.Background(), cacheKey(in), func() (*Recommendation, error) {
		return Advise(in)
	})
	if err != nil {
		return nil, "", err
	}
	outcome := "miss"
	if hit {
		outcome = "hit"
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
