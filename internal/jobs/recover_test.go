package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/rng"
)

// referenceRecover is Recover with every record through json.Unmarshal,
// as it was before bareRecord: the specification the fast path is held
// to, byte for byte.
func referenceRecover(dir string) ([]PendingJob, journal.ReplayStats, error) {
	pending := map[string]*PendingJob{}
	var order []string
	st, err := journal.Replay(context.Background(), dir, func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("jobs: recover: bad record: %w", err)
		}
		switch rec.Op {
		case opAccepted:
			if _, ok := pending[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			pending[rec.ID] = &PendingJob{ID: rec.ID, Spec: Spec{
				Kind: rec.Kind, RequestID: rec.RequestID, Tenant: rec.Tenant,
				Retries: rec.Retries, Payload: rec.Payload,
			}}
		case opSucceeded, opFailed, opCanceled:
			delete(pending, rec.ID)
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	var out []PendingJob
	for _, id := range order {
		if p, ok := pending[id]; ok {
			out = append(out, *p)
		}
	}
	return out, st, nil
}

// allOps: the five payload-less ops, and three that are not.
var allOps = []string{opStarted, opRetried, opSucceeded, opFailed, opCanceled, opAccepted, "paused", ""}

// checkBare holds bareRecord to the decoder on one byte sequence: it
// either declines, or the decoder parses the same bytes to a record with
// that id, one of the five payload-less ops, and nothing else set.
func checkBare(t *testing.T, b []byte) (accepted bool) {
	t.Helper()
	id, terminal, ok := bareRecord(b)
	if !ok {
		return false
	}
	var rec walRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatalf("bareRecord accepted %q, the decoder fails: %v", b, err)
	}
	if want := (walRecord{Op: rec.Op, ID: string(id)}); !reflect.DeepEqual(rec, want) {
		t.Fatalf("bareRecord read %q as id %q; the decoder reads %+v", b, id, rec)
	}
	switch rec.Op {
	case opStarted, opRetried:
		if terminal {
			t.Fatalf("bareRecord calls %q terminal", b)
		}
	case opSucceeded, opFailed, opCanceled:
		if !terminal {
			t.Fatalf("bareRecord calls %q non-terminal", b)
		}
	default:
		t.Fatalf("bareRecord accepted op %q in %q", rec.Op, b)
	}
	return true
}

// TestBareRecordMatchesDecoder is the equivalence proof of Recover's
// shape-match, by table and by property.
func TestBareRecordMatchesDecoder(t *testing.T) {
	marshal := func(rec walRecord) []byte {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ids := []string{
		"j000001-0123456789ab", "", " ", "a b~!#$%()*+,-./:;=?@[]^_`{|}", // taken as they are
		`q"uote`, `back\slash`, "tab\t", "nul\x00", "del\x7f", "é", "日本", "<&>", "\u2028", "bad\xffutf8", `","id":"x`,
	}
	for _, op := range allOps {
		for i, id := range ids {
			b := marshal(walRecord{Op: op, ID: id})
			plain := i < 4 && op != opAccepted && op != "paused" && op != ""
			if got := checkBare(t, b); got != plain {
				t.Errorf("bareRecord(%q) accepted = %v, want %v", b, got, plain)
			}
		}
		// Any optional field makes it the decoder's record.
		for _, rec := range []walRecord{
			{Op: op, ID: "j1", Kind: "simulate"},
			{Op: op, ID: "j1", RequestID: "r-1"},
			{Op: op, ID: "j1", Tenant: "t"},
			{Op: op, ID: "j1", Retries: 1},
			{Op: op, ID: "j1", Payload: json.RawMessage(`{"id":"x"}`)},
		} {
			if b := marshal(rec); checkBare(t, b) {
				t.Errorf("bareRecord accepted %q", b)
			}
		}
	}
	// Other spellings of the same record, and near misses, are declined:
	// they reach the decoder, which accepts some and fails others.
	for _, s := range []string{
		` {"op":"started","id":"j1"}`, `{"op":"started","id":"j1"} `, `{"op":"started", "id":"j1"}`,
		`{"id":"j1","op":"started"}`, `{"op":"started","id":"j1","x":1}`, `{"op":"started","id":"j1"}}`,
		`{"op":"started","id":"j1"}{"op":"started","id":"j1"}`, `{"op":"paused","id":"j1"}`,
		`{"op":"Started","id":"j1"}`, `{"op":"started","ID":"j1"}`, `{"op":"started","id":"j1"`, `{"op":"started","id":"j1}`,
		`{"op":"started"}`, `{"op":"started","id":7}`, `{"op":"","id":""}`, `{"op":"`, `"}`, `{"op":""}`, ``, `{}`, `null`,
		`{"op":"started","id":"a","id":"b"}`, `{"op":"started","op":"failed","id":"b"}`,
	} {
		if checkBare(t, []byte(s)) {
			t.Errorf("bareRecord accepted %q", s)
		}
	}

	// Property: marshalled records over ids drawn from every byte class,
	// and the same bytes with one byte changed.
	alphabet := []string{"a", "Z", "0", "-", " ", "~", `"`, `\`, "\n", "\x00", "\x1f", "\x7f", "é", "\xff", "<", "{", "}", ":", ","}
	r := rng.New(24)
	accepted := 0
	for i := 0; i < 20000; i++ {
		var id strings.Builder
		for n := r.Intn(6); n > 0; n-- {
			id.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		rec := walRecord{Op: allOps[r.Intn(len(allOps))], ID: id.String()}
		if r.Intn(8) == 0 {
			rec.Retries = r.Intn(3)
		}
		if r.Intn(8) == 0 {
			rec.Kind = alphabet[r.Intn(len(alphabet))]
		}
		b := marshal(rec)
		if checkBare(t, b) {
			accepted++
		}
		b[r.Intn(len(b))] = alphabet[r.Intn(len(alphabet))][0]
		checkBare(t, b)
	}
	if accepted == 0 {
		t.Fatal("the property never exercised an accepted record")
	}
}

// walScript appends a random but legal job history to dir through raw
// journal writers: accept / start / retry / finish / cancel interleaved
// over a handful of jobs, split over `restarts`+1 writer generations,
// each of which first re-accepts the jobs still open — the duplicates a
// crash before compaction leaves behind.
func walScript(t *testing.T, dir string, r *rng.Source, steps, restarts int) {
	t.Helper()
	var open []walRecord // acceptances without a terminal record yet
	next := 0
	for gen := 0; gen <= restarts; gen++ {
		w, err := journal.Open(dir, journal.Options{SegmentBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		add := func(rec walRecord) {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range open {
			add(rec)
		}
		for s := 0; s < steps; s++ {
			switch k := r.Intn(6); {
			case k < 2 || len(open) == 0:
				next++
				rec := walRecord{Op: opAccepted, ID: fmt.Sprintf("j%06d-%012x", next, r.Uint64()>>16), Kind: "simulate"}
				if r.Intn(2) == 0 {
					rec.RequestID = fmt.Sprintf("r-%x", r.Uint64())
				}
				if r.Intn(3) == 0 {
					rec.Tenant = `ten"ant`
				}
				if r.Intn(3) == 0 {
					rec.Retries = 1 + r.Intn(3)
				}
				if r.Intn(4) != 0 {
					rec.Payload = json.RawMessage(fmt.Sprintf(`{"workload":"minife","nodes":%d,"id":"%s"}`, 16<<r.Intn(4), rec.ID))
				}
				add(rec)
				open = append(open, rec)
			case k == 2:
				add(walRecord{Op: opStarted, ID: open[r.Intn(len(open))].ID})
			case k == 3:
				add(walRecord{Op: opRetried, ID: open[r.Intn(len(open))].ID})
			default:
				i := r.Intn(len(open))
				add(walRecord{Op: []string{opSucceeded, opFailed, opCanceled}[r.Intn(3)], ID: open[i].ID})
				open = append(open[:i], open[i+1:]...)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverMatchesReference: over randomized WALs Recover returns
// exactly what the all-json.Unmarshal Recover returns — the same jobs,
// in the same order, with the same bytes.
func TestRecoverMatchesReference(t *testing.T) {
	recovered := 0
	for seed := uint64(1); seed <= 40; seed++ {
		dir := t.TempDir()
		walScript(t, dir, rng.New(seed), 60, int(seed%3))
		want, wantSt, err := referenceRecover(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := Recover(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		if gotSt != wantSt || wantSt.Segments < 2 {
			t.Fatalf("seed %d: stats %+v, reference %+v (want several segments)", seed, gotSt, wantSt)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Recover and the reference disagree\n got: %+v\nwant: %+v", seed, got, want)
		}
		recovered += len(want)
	}
	if recovered < 40 {
		t.Fatalf("only %d jobs recovered over all seeds: the scripts leave too little open", recovered)
	}
}

// TestRecoverBadRecordFailsLoudly: a record that passed its CRC but does
// not decode is version skew, and aborts recovery — whether it is not
// JSON at all, JSON of the wrong type, or a near miss of the bare shape.
func TestRecoverBadRecordFailsLoudly(t *testing.T) {
	for _, bad := range []string{
		"not json", `{"op":"accepted","id":"j1","retries":"x"}`, `{"op":"started","id":"j1"`, `{"op":"started","id":7}`,
		`{"op":"started","id":"j1"}}`, "{\"op\":\"started\",\"id\":\"j\x01\"}",
	} {
		dir := t.TempDir()
		w := openJournal(t, dir)
		for _, rec := range []string{`{"op":"accepted","id":"j0","kind":"simulate"}`, bad, `{"op":"succeeded","id":"j0"}`} {
			if err := w.Append(context.Background(), []byte(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, st, err := Recover(context.Background(), dir)
		if err == nil || !strings.Contains(err.Error(), "jobs: recover: bad record") {
			t.Fatalf("record %q: err = %v, want a bad-record failure", bad, err)
		}
		if _, _, refErr := referenceRecover(dir); refErr == nil || refErr.Error() != err.Error() {
			t.Fatalf("record %q: err %q, reference %v", bad, err, refErr)
		}
		if st.Records != 2 || st.Quarantined != 0 {
			t.Fatalf("record %q: stats %+v, want the abort at record 2 and no quarantine", bad, st)
		}
	}
}

// TestRecoverBareRecordsDoNotAllocate: a payload-less record costs
// Recover no decode — in particular no encoding/json call, which
// allocates on every one.
func TestRecoverBareRecordsDoNotAllocate(t *testing.T) {
	pending := map[string]*PendingJob{"j000001-0123456789ab": {}}
	started := []byte(`{"op":"started","id":"j000001-0123456789ab"}`)
	finished := []byte(`{"op":"succeeded","id":"j000001-0123456789ab"}`)
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range [][]byte{started, finished} {
			id, terminal, ok := bareRecord(b)
			if !ok {
				t.Fatalf("declined %q", b)
			}
			if terminal {
				delete(pending, string(id))
			}
		}
	}); n != 0 {
		t.Fatalf("a started and a succeeded record cost %.0f allocations, want 0", n)
	}
	if len(pending) != 0 {
		t.Fatal("the terminal record did not close its job")
	}
}

// imageShapedWAL writes a jobs WAL with the shape of the benchmark's
// crash image: `finished` accepted/started/succeeded triples, then `open`
// accepted-only jobs, every acceptance carrying a 150-byte simulate
// payload.
func imageShapedWAL(tb testing.TB, dir string, finished, open int) {
	tb.Helper()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	payload := json.RawMessage(fmt.Sprintf(`{"workload":"minife","nodes":16,"iters":2,"mtbce_ns":500000000,"mode":"firmware-emca","seed":1,"reps":1,"pad":"%s"}`, strings.Repeat("x", 37)))
	if len(payload) != 150 {
		tb.Fatalf("payload is %d bytes, want 150", len(payload))
	}
	for i := 0; i < finished+open; i++ {
		id := fmt.Sprintf("j%06d-0123456789ab", i)
		recs := []walRecord{{Op: opAccepted, ID: id, Kind: "simulate", RequestID: "r-0123456789ab", Payload: payload}}
		if i < finished {
			recs = append(recs, walRecord{Op: opStarted, ID: id}, walRecord{Op: opSucceeded, ID: id})
		}
		for _, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				tb.Fatal(err)
			}
			if err := w.Append(context.Background(), b); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRecover is jobs.Recover alone over the image-shaped WAL:
// 12 064 records, 64 jobs recovered.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	imageShapedWAL(b, dir, 4000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending, st, err := Recover(context.Background(), dir)
		if err != nil || len(pending) != 64 || st.Records != 3*4000+64 {
			b.Fatalf("recover: %d pending, %+v, %v", len(pending), st, err)
		}
	}
}
