package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/advise"
	"repro/internal/faultmodel"
	"repro/internal/systems"
)

// advisor_cycle: one op is one node agent's cycle — POST a batch of CE
// events for the node to /v1/advise/ingest, then GET its recommendation.
// internal/advise does all the work (strict NDJSON parse, two-pass
// atomic apply, windowed estimator, quantized policy cache) and the
// simulator none; writes sit beside reads on one store, so an ingest
// gain that costs recommend latency shows. The streams are field-grounded
// fault mixtures (systems.FaultMixes), not uniform noise: bursts and
// skewed nodes are what make estimator states differ between nodes.

const (
	advisorNodes   = 256
	advisorTenants = 4
	advisorRounds  = 40
	advisorBatch   = 250
	advisorMTBCE   = 60e9
	// advisorEpoch places the streams' relative times on the Unix clock
	// the ingest schema expects.
	advisorEpoch = 1_700_000_000_000_000_000
	// advisorCheck is the share of nodes whose final recommendation is
	// compared with a fresh service fed the same batches in another order.
	advisorCheck = 0.10
)

type advisorCycle struct {
	e      *env
	d      *daemon
	warm   int
	n      int
	events [][]faultmodel.Event // per node, every batch back to back
	base   advise.Stats
	bufs   [2]bytes.Buffer

	ingest, recommend [2][]time.Duration
}

func advisorTenant(node int) string { return "tenant-" + strconv.Itoa(node%advisorTenants) }
func advisorNode(node int) string   { return fmt.Sprintf("node-%04d", node) }

func (w *advisorCycle) setup(ctx context.Context, e *env) error {
	w.e = e
	w.n = e.count(advisorNodes*advisorRounds, advisorNodes/2)
	w.warm = (w.n + 9) / 10
	batches := (w.warm + w.n + advisorNodes - 1) / advisorNodes
	mixes := systems.FaultMixes()
	w.events = make([][]faultmodel.Event, advisorNodes)
	for node := range w.events {
		spec := mixes[node%len(mixes)].Spec.WithMTBCE(advisorMTBCE)
		ev, err := spec.Events(e.seed, uint64(node), batches*advisorBatch)
		if err != nil {
			return err
		}
		w.events[node] = ev
	}
	var err error
	w.d, err = bootDaemon(ctx, filepath.Join(e.dir, "data"))
	return err
}

func (w *advisorCycle) teardown() {
	if w.d != nil {
		w.d.close()
	}
}

func (w *advisorCycle) begin()                  { w.base = w.d.adv.Stats() }
func (w *advisorCycle) clients() int            { return 2 }
func (w *advisorCycle) sizes() (int, int)       { return w.warm, w.n }
func (w *advisorCycle) deadline() time.Duration { return 2 * time.Second }

// batch returns the events of the k-th op of the whole stream (warm-up
// first): op k serves node k mod advisorNodes its next batch.
func (w *advisorCycle) batch(k int) (node int, events []faultmodel.Event) {
	node, round := k%advisorNodes, k/advisorNodes
	return node, w.events[node][round*advisorBatch : (round+1)*advisorBatch]
}

// render writes a batch as the NDJSON body a node agent would send.
func render(buf *bytes.Buffer, node int, events []faultmodel.Event) {
	buf.Reset()
	prefix := `{"tenant":"` + advisorTenant(node) + `","node":"` + advisorNode(node) + `","ts_ns":`
	var num [24]byte
	for _, ev := range events {
		buf.WriteString(prefix)
		buf.Write(strconv.AppendInt(num[:0], advisorEpoch+ev.TimeNanos, 10))
		buf.WriteString(`,"addr":`)
		buf.Write(strconv.AppendUint(num[:0], ev.Addr, 10))
		buf.WriteString(`,"bank":`)
		buf.Write(strconv.AppendInt(num[:0], int64(ev.Bank), 10))
		buf.WriteString("}\n")
	}
}

func recommendPath(node int) string {
	return "/v1/advise/recommend?" + url.Values{"tenant": {advisorTenant(node)}, "node": {advisorNode(node)}}.Encode()
}

// finalPath asks for a node's recommendation under a machine size the
// pass never asked about. The policy cache keys on the classifier
// confidence folded to three decimals but echoes the exact confidence
// of whichever state filled the entry, so a default-scenario answer
// depends on the service's cache history (README.md, Known gaps); an
// unseen scenario makes both services evaluate the policy afresh, in
// the same order, and the bytes then depend on estimator state alone.
func finalPath(node int) string { return recommendPath(node) + "&nodes=16383" }

func (w *advisorCycle) do(ctx context.Context, lane, i int, warm bool) (time.Duration, error) {
	k := w.warm + i
	tr := w.e.tr
	if warm {
		k, tr = i, nil
	}
	node, events := w.batch(k)
	buf := &w.bufs[lane]
	render(buf, node, events) // outside the op's span

	start := time.Now()
	root := tr.begin("op", i, lane, -1)
	defer tr.end(root)
	s := tr.begin("http.ingest", i, lane, root)
	code, body, err := w.d.roundTrip(ctx, http.MethodPost, "/v1/advise/ingest", buf.Bytes())
	tr.end(s)
	ingested := time.Now()
	if err != nil {
		return 0, err
	}
	var res advise.IngestResult
	if code != http.StatusOK || json.Unmarshal(body, &res) != nil || res.Accepted != len(events) {
		return 0, fmt.Errorf("ingest: status %d: %s", code, bytes.TrimSpace(body))
	}
	s = tr.begin("http.recommend", i, lane, root)
	code, body, err = w.d.roundTrip(ctx, http.MethodGet, recommendPath(node), nil)
	tr.end(s)
	end := time.Now()
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("recommend: status %d: %s", code, bytes.TrimSpace(body))
	}
	if tr != nil {
		w.ingest[lane] = append(w.ingest[lane], ingested.Sub(start))
		w.recommend[lane] = append(w.recommend[lane], end.Sub(ingested))
	}
	return end.Sub(start), nil
}

// verify asks the daemon for the sampled nodes' final recommendations
// and requires the same bytes from a fresh service that was fed those
// nodes' batches in a permuted order.
func (w *advisorCycle) verify(ctx context.Context) (int, []int, error) {
	fresh := advise.NewService(advisorConfig())
	served := advisorNodes // nodes the stream reached; all of them unless -smoke cut it short
	if w.warm+w.n < served {
		served = w.warm + w.n
	}
	nodes := sampleOps(w.e.seed, served, advisorCheck)
	sampled := map[int]bool{}
	for _, n := range nodes {
		sampled[n] = true
	}
	var ops []int
	for k := 0; k < w.warm+w.n; k++ {
		if sampled[k%advisorNodes] {
			ops = append(ops, k)
		}
	}
	var buf bytes.Buffer
	for _, j := range permute(w.e.seed+1, len(ops)) {
		node, events := w.batch(ops[j])
		render(&buf, node, events)
		rec := httptest.NewRecorder()
		fresh.HandleIngest(rec, httptest.NewRequest(http.MethodPost, "/v1/advise/ingest", bytes.NewReader(buf.Bytes())))
		if rec.Code != http.StatusOK {
			return 0, nil, fmt.Errorf("reference ingest: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	for _, node := range nodes {
		code, got, err := w.d.roundTrip(ctx, http.MethodGet, finalPath(node), nil)
		if err != nil || code != http.StatusOK {
			return 0, nil, fmt.Errorf("final recommend for node %d: status %d: %v", node, code, err)
		}
		rec := httptest.NewRecorder()
		fresh.HandleRecommend(rec, httptest.NewRequest(http.MethodGet, finalPath(node), nil))
		if !bytes.Equal(got, rec.Body.Bytes()) {
			return len(nodes), nil, fmt.Errorf("%w: node %d's recommendation differs from a fresh service fed the same batches in another order", errMismatch, node)
		}
	}
	return len(nodes), nil, nil
}

func (w *advisorCycle) layers(ctx context.Context, p *pass, m metrics) error {
	ingest := append(append([]time.Duration(nil), w.ingest[0]...), w.ingest[1]...)
	recommend := append(append([]time.Duration(nil), w.recommend[0]...), w.recommend[1]...)
	var ingestSum time.Duration
	for _, d := range ingest {
		ingestSum += d
	}
	m["advise.ingest_ms"] = ms(median(ingest))
	if ingestSum > 0 {
		m["advise.ingest_events_per_s"] = float64(len(ingest)*advisorBatch) / ingestSum.Seconds()
	}
	m["advise.recommend_us"] = us(median(recommend))
	st := w.d.adv.Stats()
	hits := float64(st.RecommendHits - w.base.RecommendHits)
	if lookups := hits + float64(st.RecommendMisses-w.base.RecommendMisses); lookups > 0 {
		m["advise.recommend_hit_ratio"] = hits / lookups
	}
	m["process.loadgen_cpu_share"] = loadgenShare(ctx, 2*len(ingest), p.cpu)

	// Store.Apply on pre-parsed events: the ingest path minus HTTP and
	// the NDJSON parser.
	store := advise.NewStore(advise.StoreConfig{})
	var applied int
	var applyTime time.Duration
	for k := 0; k < w.warm+w.n && k < 2048; k++ {
		node, events := w.batch(k)
		parsed := make([]advise.Event, len(events))
		for j, ev := range events {
			parsed[j] = advise.Event{
				Tenant: advisorTenant(node), Node: advisorNode(node),
				TimeNanos: advisorEpoch + ev.TimeNanos, Addr: ev.Addr, Bank: ev.Bank,
			}
		}
		t := time.Now()
		if err := store.Apply(parsed); err != nil {
			return err
		}
		applyTime += time.Since(t)
		applied += len(parsed)
	}
	m["advise.apply_ns_per_event"] = float64(applyTime) / float64(applied)

	// The policy evaluation a recommend-cache miss pays.
	in := advise.Inputs{Workload: "lulesh", Nodes: 16384, BudgetPct: 10, GiBPerNode: 700, ObservedMTBCENanos: advisorMTBCE}
	var policyErr error
	m["advise.policy_us"] = us(timeLoop(64, func() {
		if _, err := advise.Advise(in); err != nil {
			policyErr = err
		}
	}))
	if policyErr != nil {
		return policyErr
	}
	return faultmodelProbe(m, systems.FaultMixes()[0].Spec.WithMTBCE(advisorMTBCE))
}
