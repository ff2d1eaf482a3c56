package advise

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/systems"
)

// The advisor_cycle benchmark's stream (bench/wl_advisor.go), in
// miniature: per node a field fault mixture at MTBCE 60 s on the Unix
// clock, sent as bench-shaped NDJSON batches of 250 lines.
const (
	agentBatch = 250
	agentEpoch = 1_700_000_000_000_000_000
)

// agentStreams returns every node's events for rounds batches.
func agentStreams(tb testing.TB, nodes, rounds int) [][]faultmodel.Event {
	tb.Helper()
	mixes := systems.FaultMixes()
	out := make([][]faultmodel.Event, nodes)
	for node := range out {
		evs, err := mixes[node%len(mixes)].Spec.WithMTBCE(60e9).Events(1, uint64(node), rounds*agentBatch)
		if err != nil {
			tb.Fatal(err)
		}
		out[node] = evs
	}
	return out
}

func agentTenant(node int) string { return "tenant-" + strconv.Itoa(node%4) }
func agentNode(node int) string   { return fmt.Sprintf("node-%04d", node) }

// agentBody renders one batch the way a node agent does. With
// syndEvery > 0 every syndEvery-th line also carries a synd, a shape
// only encoding/json reads.
func agentBody(node int, events []faultmodel.Event, syndEvery int) string {
	var b strings.Builder
	for i, ev := range events {
		fmt.Fprintf(&b, `{"tenant":%q,"node":%q,"ts_ns":%d,"addr":%d,"bank":%d`,
			agentTenant(node), agentNode(node), agentEpoch+ev.TimeNanos, ev.Addr, ev.Bank)
		if syndEvery > 0 && i%syndEvery == 0 {
			fmt.Fprintf(&b, `,"synd":"0x%x"`, ev.Addr&0xff)
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// tracegenBody renders one batch the way tracegen -fault-mix does
// (cmd/tracegen's exportFaultMix): json.Encoder, bank always, synd last.
func tracegenBody(node int, events []faultmodel.Event) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, ev := range events {
		synd := ev.Kind.String()
		if ev.Transient {
			synd += "-transient"
		}
		_ = enc.Encode(struct { // strings and integers into a Builder: cannot fail
			Tenant    string `json:"tenant"`
			Node      string `json:"node"`
			TimeNanos int64  `json:"ts_ns"`
			Addr      uint64 `json:"addr"`
			Bank      int    `json:"bank"`
			Syndrome  string `json:"synd"`
		}{agentTenant(node), agentNode(node), agentEpoch + ev.TimeNanos, ev.Addr, ev.Bank, synd})
	}
	return b.String()
}

// spacedBody renders one batch the way Python's json.dumps does, with a
// space after every ':' and ',' — a shape only encoding/json reads.
func spacedBody(node int, events []faultmodel.Event) string {
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, `{"tenant": %q, "node": %q, "ts_ns": %d, "addr": %d, "bank": %d}`+"\n",
			agentTenant(node), agentNode(node), agentEpoch+ev.TimeNanos, ev.Addr, ev.Bank)
	}
	return b.String()
}

// TestTracegenLinesAreAgentLines: every line tracegen -fault-mix writes,
// for every preset mixture, takes agentLine's path.
func TestTracegenLinesAreAgentLines(t *testing.T) {
	mixes := systems.FaultMixes()
	for node, events := range agentStreams(t, len(mixes), 1) {
		for i, line := range strings.Split(strings.TrimSuffix(tracegenBody(node, events), "\n"), "\n") {
			if _, ok := agentLine([]byte(line), Event{}); !ok {
				t.Fatalf("%s line %d goes to encoding/json: %s", mixes[node].Name, i+1, line)
			}
		}
	}
}

// agentQueries are the recommend query shapes the pinned hash covers.
var agentQueries = []string{
	"",
	"&workload=hpcg&nodes=2048&budget=5&gib=128",
	"&perevent_ns=5000000&checkpoint_ns=3600000000000&restart_ns=600000000000",
}

func agentQuery(node, shape int) string {
	return "tenant=" + agentTenant(node) + "&node=" + agentNode(node) + agentQueries[shape]
}

// TestResponseBodiesMatchParent pins the bytes of every ingest and
// recommend response over a bench-shaped stream — 32 nodes × 40 rounds
// of ingest-then-recommend, three query shapes — to the sha256 recorded
// at the parent of the map-free estimator and the agent-line reader.
func TestResponseBodiesMatchParent(t *testing.T) {
	const nodes, rounds = 32, 40
	const want = "8e02d510e0e8411f88acf54f10b1202be706ff08e49769833829f553d49aebc2"
	streams := agentStreams(t, nodes, rounds)
	s := NewService(Config{})
	h := sha256.New()
	for round := 0; round < rounds; round++ {
		for node := 0; node < nodes; node++ {
			body := agentBody(node, streams[node][round*agentBatch:(round+1)*agentBatch], 7*(round%2))
			w := ingest(t, s, body)
			fmt.Fprintf(h, "%d %s", w.Code, w.Body.Bytes())
			for shape := range agentQueries {
				w := recommend(t, s, agentQuery(node, shape))
				if w.Code != 200 {
					t.Fatalf("recommend %s: %d %s", agentQuery(node, shape), w.Code, w.Body)
				}
				fmt.Fprintf(h, "%d %s", w.Code, w.Body.Bytes())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("response bodies sha256 = %s, want %s (recorded at the parent)", got, want)
	}
}

// BenchmarkIngest is one advisor_cycle ingest: a 250-line batch through
// HandleIngest, the node's next in time order, into a store that already
// tracks the node. The batch is rendered as node agents do (the bench's
// shape), as tracegen -fault-mix does, and spaced, which agentLine
// declines.
func BenchmarkIngest(b *testing.B) {
	shapes := []struct {
		name   string
		render func(node int, events []faultmodel.Event) string
	}{
		{"agent", func(node int, events []faultmodel.Event) string { return agentBody(node, events, 0) }},
		{"tracegen", tracegenBody},
		{"spaced", spacedBody},
	}
	const rounds = 16
	streams := agentStreams(b, 1, rounds)
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			bodies := make([]string, rounds)
			for r := range bodies {
				bodies[r] = shape.render(0, streams[0][r*agentBatch:(r+1)*agentBatch])
			}
			send := func(s *Service, body string) {
				w := httptest.NewRecorder()
				s.HandleIngest(w, httptest.NewRequest("POST", "/v1/advise/ingest", strings.NewReader(body)))
				if w.Code != 200 {
					b.Fatalf("ingest: %d %s", w.Code, w.Body)
				}
			}
			var s *Service
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := 1 + i%(rounds-1)
				if r == 1 { // the stream is used up: start it over on a fresh service
					b.StopTimer()
					s = NewService(Config{})
					send(s, bodies[0])
					b.StartTimer()
				}
				send(s, bodies[r])
			}
		})
	}
}

// BenchmarkApplyReversed is the bucket run's worst batch: one node's
// MaxBatchEvents events newest first, each in its own bucket, applied
// to a fresh store.
func BenchmarkApplyReversed(b *testing.B) {
	const n = 10000 // Config.MaxBatchEvents' default
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Tenant: "t", Node: "n", TimeNanos: agentEpoch + int64(n-i)*60e9, Addr: uint64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewStore(StoreConfig{}).Apply(events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommend is the cache-hit recommend of a node with a full
// estimator window.
func BenchmarkRecommend(b *testing.B) {
	s := NewService(Config{})
	fillWindow(b, s)
	q := "/v1/advise/recommend?" + agentQuery(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.HandleRecommend(w, httptest.NewRequest("GET", q, nil))
		if w.Code != 200 {
			b.Fatalf("recommend: %d %s", w.Code, w.Body)
		}
	}
}

// BenchmarkEstimate is Estimate over a full 1440-bucket window.
func BenchmarkEstimate(b *testing.B) {
	e := NewEstimator(EstimatorConfig{})
	for ts := int64(1); ts <= 1440; ts++ {
		e.Add(agentEpoch + ts*60e9)
	}
	e.Trim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Estimate().WindowEvents != 1440 {
			b.Fatal("window not full")
		}
	}
}

// fillWindow ingests one node's stream until its window is full (about
// six batches at MTBCE 60 s) and warms the recommend cache.
func fillWindow(tb testing.TB, s *Service) {
	tb.Helper()
	const rounds = 8
	streams := agentStreams(tb, 1, rounds)
	for r := 0; r < rounds; r++ {
		req := httptest.NewRequest("POST", "/v1/advise/ingest", strings.NewReader(agentBody(0, streams[0][r*agentBatch:(r+1)*agentBatch], 0)))
		w := httptest.NewRecorder()
		s.HandleIngest(w, req)
		if w.Code != 200 {
			tb.Fatalf("ingest: %d %s", w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	s.HandleRecommend(w, httptest.NewRequest("GET", "/v1/advise/recommend?"+agentQuery(0, 0), nil))
	if w.Code != 200 {
		tb.Fatalf("recommend: %d %s", w.Code, w.Body)
	}
}
