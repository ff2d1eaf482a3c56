package advise

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faultmodel"
)

func ndjson(t *testing.T, events []Event) string {
	t.Helper()
	var b strings.Builder
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func ingest(t *testing.T, s *Service, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/advise/ingest", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.HandleIngest(w, req)
	return w
}

func recommend(t *testing.T, s *Service, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/advise/recommend?"+query, nil)
	w := httptest.NewRecorder()
	s.HandleRecommend(w, req)
	return w
}

func TestIngestHappyPath(t *testing.T) {
	s := NewService(Config{})
	events := []Event{
		ev("acme", "n1", 60e9, 0x1000),
		ev("acme", "n1", 120e9, 0x1008),
		ev("acme", "n2", 60e9, 0x2000),
	}
	w := ingest(t, s, ndjson(t, events))
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var res IngestResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Nodes != 2 {
		t.Fatalf("result: %+v", res)
	}
	if st := s.Stats(); st.Store.Events != 3 || st.IngestRejects != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestIngestRejectsBadBatches(t *testing.T) {
	s := NewService(Config{MaxBatchEvents: 2})
	good := `{"tenant":"acme","node":"n1","ts_ns":1,"addr":16}`
	cases := []struct {
		name, body, wantFrag string
	}{
		{"empty", "\n\n", "empty batch"},
		{"bad json", good + "\n{nope\n", "line 2"},
		{"unknown field", `{"tenant":"acme","node":"n1","ts_ns":1,"addr":16,"extra":1}`, "line 1"},
		{"bad event", `{"tenant":"acme","node":"n1","ts_ns":0,"addr":16}`, "ts_ns"},
		{"whitespace name", `{"tenant":"ac me","node":"n1","ts_ns":1,"addr":16}`, "tenant"},
		{"oversized", good + "\n" + good + "\n" + good + "\n", "exceeds 2 events"},
		// A line is one event: the decoder used to stop after the first
		// value, ingesting the first with 200 and dropping the rest.
		{"trailing garbage", good + "\n" + good + ` garbage`, "line 2: trailing data after event"},
		{"two events on a line", good + `{"tenant":"acme","node":"n2","ts_ns":1,"addr":16}`, "line 1: trailing data after event"},
	}
	for _, tc := range cases {
		w := ingest(t, s, tc.body)
		if w.Code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body)
			continue
		}
		if !strings.Contains(w.Body.String(), tc.wantFrag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, w.Body, tc.wantFrag)
		}
	}
	if st := s.Stats(); st.IngestRejects != uint64(len(cases)) {
		t.Fatalf("IngestRejects = %d, want %d", st.IngestRejects, len(cases))
	}
	if st := s.Stats(); st.Store.Events != 0 {
		t.Fatalf("rejected batches leaked events: %+v", st.Store)
	}
}

// TestOversizedIngestIs413: a batch body over the 8 MiB limit is
// refused 413 and applies nothing, even when its lines are well formed
// and the event cap is out of reach — the limit cuts the last line,
// and that cut is reported as the oversized body it is, not as a bad
// line.
func TestOversizedIngestIs413(t *testing.T) {
	s := NewService(Config{MaxBatchEvents: 1 << 20})
	line := `{"tenant":"acme","node":"n1","ts_ns":1000000007,"addr":16}` + "\n"
	body := strings.Repeat(line, maxIngestBytes/len(line)+1)
	if maxIngestBytes%len(line) == 0 {
		t.Fatal("the limit falls between lines; pick another line length")
	}
	w := ingest(t, s, body)
	if w.Code != 413 || !strings.Contains(w.Body.String(), "request body too large") {
		t.Fatalf("status %d: %s, want 413", w.Code, w.Body)
	}
	if st := s.Stats(); st.Store.Events != 0 || st.IngestRejects != 1 {
		t.Fatalf("oversized batch: %+v", st)
	}
}

func TestIngestLimitReturns429(t *testing.T) {
	s := NewService(Config{Store: StoreConfig{MaxNodesPerTenant: 1}})
	w := ingest(t, s, ndjson(t, []Event{
		ev("acme", "n1", 60e9, 1),
		ev("acme", "n2", 60e9, 2),
	}))
	if w.Code != 429 {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body)
	}
}

func TestRecommendValidation(t *testing.T) {
	s := NewService(Config{})
	cases := []struct {
		name, query, wantFrag string
		wantCode              int
	}{
		{"unknown params", "tenant=a&node=n&bogus=1&zzz=2", "[bogus zzz]", 400},
		{"missing tenant", "node=n", "tenant is required", 400},
		{"missing node", "tenant=a", "node is required", 400},
		{"bad nodes", "tenant=a&node=n&nodes=many", "nodes", 400},
		{"bad budget", "tenant=a&node=n&budget=lots", "budget", 400},
		{"unknown node", "tenant=a&node=n", "no ingested events", 404},
	}
	for _, tc := range cases {
		w := recommend(t, s, tc.query)
		if w.Code != tc.wantCode {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.wantCode, w.Body)
			continue
		}
		if !strings.Contains(w.Body.String(), tc.wantFrag) {
			t.Errorf("%s: body %q does not mention %q", tc.name, w.Body, tc.wantFrag)
		}
	}
}

// TestRecommendRejectionsVerbatim pins every recommend rejection body
// byte for byte — messages recorded before the query parsing was folded
// into parseRecommend, including which problem wins when a query has
// several.
func TestRecommendRejectionsVerbatim(t *testing.T) {
	s := NewService(Config{})
	long := strings.Repeat("x", 200)
	cases := []struct {
		query string
		code  int
		msg   string
	}{
		{"tenant=a&node=n&bogus=1&zzz=2", 400, `advise: unknown query parameters [bogus zzz]`},
		{"bogus=1", 400, `advise: unknown query parameters [bogus]`},
		{"=1&tenant=a&node=n", 400, `advise: unknown query parameters []`},
		{"node=n", 400, `advise: tenant is required`},
		{"tenant=&node=n", 400, `advise: tenant is required`},
		{"tenant=a", 400, `advise: node is required`},
		{"tenant=a%20b&node=n", 400, `advise: tenant contains whitespace or quotes`},
		{"tenant=a+b&node=n&nodes=x", 400, `advise: tenant contains whitespace or quotes`},
		{"tenant=a&node=n%22", 400, `advise: node contains whitespace or quotes`},
		{"tenant=" + long + "&node=n", 400, `advise: tenant longer than 64 bytes`},
		{"tenant=a&node=" + long, 400, `advise: node longer than 64 bytes`},
		{"tenant=a&node=n&nodes=many", 400, `advise: nodes: strconv.Atoi: parsing "many": invalid syntax`},
		{"tenant=a&node=n&nodes=99999999999999999999", 400, `advise: nodes: strconv.Atoi: parsing "99999999999999999999": value out of range`},
		{"tenant=a&node=n&nodes=1.5", 400, `advise: nodes: strconv.Atoi: parsing "1.5": invalid syntax`},
		{"tenant=a&node=n&budget=lots", 400, `advise: budget: strconv.ParseFloat: parsing "lots": invalid syntax`},
		{"tenant=a&node=n&budget=1e999", 400, `advise: budget: strconv.ParseFloat: parsing "1e999": value out of range`},
		{"tenant=a&node=n&gib=x", 400, `advise: gib: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"tenant=a&node=n&perevent_ns=1.5", 400, `advise: perevent_ns: strconv.ParseInt: parsing "1.5": invalid syntax`},
		{"tenant=a&node=n&checkpoint_ns=-", 400, `advise: checkpoint_ns: strconv.ParseInt: parsing "-": invalid syntax`},
		{"tenant=a&node=n&restart_ns=99999999999999999999", 400, `advise: restart_ns: strconv.ParseInt: parsing "99999999999999999999": value out of range`},
		{"tenant=a&node=n&restart_ns=x&nodes=y", 400, `advise: nodes: strconv.Atoi: parsing "y": invalid syntax`},
		{"tenant=a&node=n&restart_ns=x&checkpoint_ns=y&perevent_ns=z&gib=w&budget=v", 400, `advise: budget: strconv.ParseFloat: parsing "v": invalid syntax`},
		{"tenant=a&node=n&nodes=&budget=x", 400, `advise: budget: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"tenant=a&node=n&nodes=x&nodes=5", 400, `advise: nodes: strconv.Atoi: parsing "x": invalid syntax`},
		{"tenant=a&node=n&nodes=5&nodes=x&gib=q", 400, `advise: gib: strconv.ParseFloat: parsing "q": invalid syntax`},
		{"tenant=a&node=n", 404, `advise: unknown tenant/node: a/n has no ingested events`},
		{"tenant=a&node=n&workload=nope", 404, `advise: unknown tenant/node: a/n has no ingested events`},
	}
	for _, tc := range cases {
		w := recommend(t, s, tc.query)
		msg, _ := json.Marshal(tc.msg)
		if want := "{\n  \"error\": " + string(msg) + "\n}\n"; w.Code != tc.code || w.Body.String() != want {
			t.Errorf("%s: %d %q, want %d %q", tc.query, w.Code, w.Body, tc.code, want)
		}
	}
}

// seedStream ingests a healthy row-fault stream for acme/n1.
func seedStream(t *testing.T, s *Service) {
	t.Helper()
	var events []Event
	for i := 0; i < 32; i++ {
		events = append(events, ev("acme", "n1", int64(i+1)*3600e9, faultmodel.Compose(0xbeef, uint64(i))))
	}
	if w := ingest(t, s, ndjson(t, events)); w.Code != 200 {
		t.Fatalf("seed ingest: %d %s", w.Code, w.Body)
	}
}

func TestRecommendCacheOutcomes(t *testing.T) {
	cached := NewService(Config{})
	uncached := NewService(Config{CacheEntries: -1})
	seedStream(t, cached)
	seedStream(t, uncached)

	w1 := recommend(t, cached, "tenant=acme&node=n1")
	w2 := recommend(t, cached, "tenant=acme&node=n1")
	w3 := recommend(t, uncached, "tenant=acme&node=n1")
	for i, w := range []*httptest.ResponseRecorder{w1, w2, w3} {
		if w.Code != 200 {
			t.Fatalf("request %d: status %d: %s", i+1, w.Code, w.Body)
		}
	}
	if h := w1.Header().Get(CacheHeader); h != "miss" {
		t.Fatalf("first lookup: %s = %q, want miss", CacheHeader, h)
	}
	if h := w2.Header().Get(CacheHeader); h != "hit" {
		t.Fatalf("second lookup: %s = %q, want hit", CacheHeader, h)
	}
	if h := w3.Header().Get(CacheHeader); h != "bypass" {
		t.Fatalf("uncached lookup: %s = %q, want bypass", CacheHeader, h)
	}
	// Bit-identical degradation: hit, miss and bypass bodies all match.
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("hit body differs from miss body")
	}
	if !bytes.Equal(w1.Body.Bytes(), w3.Body.Bytes()) {
		t.Fatalf("bypass body differs from cached body:\n%s\nvs\n%s", w1.Body, w3.Body)
	}
	st := cached.Stats()
	if st.RecommendMisses != 1 || st.RecommendHits != 1 || st.CacheEntries != 1 {
		t.Fatalf("cached stats: %+v", st)
	}
	if st := uncached.Stats(); st.RecommendBypasses != 1 || st.CacheEntries != 0 {
		t.Fatalf("uncached stats: %+v", st)
	}
}

func TestRecommendScenarioOverrides(t *testing.T) {
	s := NewService(Config{})
	seedStream(t, s)
	w := recommend(t, s, "tenant=acme&node=n1&workload=hpcg&nodes=512&budget=5&gib=128")
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rec Recommendation
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "hpcg" || rec.Nodes != 512 || rec.BudgetPct != 5 || rec.GiBPerNode != 128 {
		t.Fatalf("overrides not applied: %+v", rec)
	}
	if rec.Estimate == nil || rec.Estimate.Node != "n1" || rec.Estimate.FaultKind != "row" {
		t.Fatalf("estimate section: %+v", rec.Estimate)
	}
	if rec.Estimate.MTBCENanos <= 0 || rec.Estimate.MTBCEQuantizedNanos != QuantizeMTBCE(rec.Estimate.MTBCENanos) {
		t.Fatalf("quantization mismatch: %+v", rec.Estimate)
	}

	w = recommend(t, s, "tenant=acme&node=n1&perevent_ns=5000000")
	var custom Recommendation
	if err := json.Unmarshal(w.Body.Bytes(), &custom); err != nil {
		t.Fatal(err)
	}
	if len(custom.Modes) != 1 || custom.Modes[0].Mode != "custom" || custom.Modes[0].PerEventNanos != 5000000 {
		t.Fatalf("perevent_ns override: %+v", custom.Modes)
	}
}

// TestRecommendDeterminismPermutedBatches is the PR's acceptance test:
// the same event batches ingested in permuted order (and with events
// shuffled inside each batch) must produce byte-identical recommend
// responses for every tracked node.
func TestRecommendDeterminismPermutedBatches(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))

	// 12 batches spanning 2 tenants x 3 nodes, mixed fault geometries.
	var batches [][]Event
	for b := 0; b < 12; b++ {
		var batch []Event
		for i := 0; i < 25; i++ {
			tenant := []string{"acme", "globex"}[(b+i)%2]
			node := fmt.Sprintf("n%d", i%3)
			ts := int64(1+rnd.Intn(14*24*3600)) * 1e9
			addr := uint64(rnd.Int63n(1 << 40))
			batch = append(batch, Event{Tenant: tenant, Node: node, TimeNanos: ts, Addr: addr, Bank: i % 8})
		}
		batches = append(batches, batch)
	}
	queries := []string{
		"tenant=acme&node=n0", "tenant=acme&node=n1", "tenant=acme&node=n2",
		"tenant=globex&node=n0", "tenant=globex&node=n1", "tenant=globex&node=n2",
		"tenant=acme&node=n0&workload=hpcg&nodes=2048&budget=5",
	}

	responses := func(s *Service) [][]byte {
		var out [][]byte
		for _, q := range queries {
			w := recommend(t, s, q)
			if w.Code != 200 {
				t.Fatalf("recommend %s: %d %s", q, w.Code, w.Body)
			}
			out = append(out, w.Body.Bytes())
		}
		return out
	}

	ref := NewService(Config{})
	for _, b := range batches {
		if w := ingest(t, ref, ndjson(t, b)); w.Code != 200 {
			t.Fatalf("ref ingest: %d %s", w.Code, w.Body)
		}
	}
	want := responses(ref)

	for trial := 0; trial < 5; trial++ {
		perm := rnd.Perm(len(batches))
		s := NewService(Config{CacheEntries: trial % 2 * -1}) // alternate cache on/off
		for _, bi := range perm {
			batch := append([]Event(nil), batches[bi]...)
			rnd.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			if w := ingest(t, s, ndjson(t, batch)); w.Code != 200 {
				t.Fatalf("trial %d ingest: %d %s", trial, w.Code, w.Body)
			}
		}
		got := responses(s)
		for i := range queries {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: query %q body diverged under permuted ingest:\n got: %s\nwant: %s",
					trial, queries[i], got[i], want[i])
			}
		}
	}
}

// TestRecommendIndependentOfQueryHistory: two services holding the same
// estimator state answer with the same bytes whatever they were asked
// before. The policy cache keys on confidence folded to 3 decimals; it
// used to evaluate with the exact value, so an entry filled at 200
// samples (confidence 0.9615…) was served at 201 (0.9617…, same key)
// with the older state's retirement.confidence in the body.
func TestRecommendIndependentOfQueryHistory(t *testing.T) {
	// One stuck cell, one CE a minute: the 201st event moves neither
	// the quantized MTBCE nor the folded confidence.
	var first []Event
	for i := 1; i <= 200; i++ {
		first = append(first, ev("acme", "n1", int64(i)*60e9, 0x1000))
	}
	last := []Event{ev("acme", "n1", 201*60e9, 0x1000)}
	const query = "tenant=acme&node=n1"

	asked := NewService(Config{})
	if w := ingest(t, asked, ndjson(t, first)); w.Code != 200 {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	early := recommend(t, asked, query) // fills the cache at 200 samples
	if early.Code != 200 || early.Header().Get("X-Advise-Cache") != "miss" {
		t.Fatalf("first query: %d cache=%q", early.Code, early.Header().Get("X-Advise-Cache"))
	}
	if w := ingest(t, asked, ndjson(t, last)); w.Code != 200 {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	got := recommend(t, asked, query)
	if got.Header().Get("X-Advise-Cache") != "hit" {
		t.Fatalf("the 201st event moved the cache key (cache=%q); the test needs two states under one key",
			got.Header().Get("X-Advise-Cache"))
	}

	fresh := NewService(Config{})
	if w := ingest(t, fresh, ndjson(t, append(first, last...))); w.Code != 200 {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	want := recommend(t, fresh, query)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("same state, different query history, different bodies:\nasked before: %s\nnever asked:  %s", got.Body, want.Body)
	}
}
