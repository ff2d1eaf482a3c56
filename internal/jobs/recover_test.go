package jobs

import (
	"bytes"
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
		if p, ok := pending[id]; ok && len(p.Spec.Payload) > 0 {
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

// checkAccepted holds acceptedRecord to the decoder on one byte
// sequence: it either declines, or the decoder parses the same bytes to
// the same record — which must not change when the bytes it was read
// from are overwritten, as the replay buffer is.
func checkAccepted(t *testing.T, b []byte) (accepted bool) {
	t.Helper()
	view := bytes.Clone(b)
	rec, ok := acceptedRecord(view)
	if !ok {
		return false
	}
	for i := range view {
		view[i] = '#'
	}
	var want walRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("acceptedRecord accepted %q, the decoder fails: %v", b, err)
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("acceptedRecord read %q as %+v; the decoder reads %+v", b, rec, want)
	}
	return true
}

// TestAcceptedRecordMatchesDecoder is the equivalence proof of Recover's
// acceptance shape-match, by table and by property.
func TestAcceptedRecordMatchesDecoder(t *testing.T) {
	// What json.Marshal writes: taken exactly when every string is plain
	// and the retry count fits the digit bound.
	for _, c := range []struct {
		rec   walRecord
		taken bool
	}{
		{walRecord{Op: opAccepted, ID: "j000001-0123456789ab"}, true},
		{walRecord{Op: opAccepted, ID: ""}, true},
		{walRecord{Op: opAccepted, ID: "j1", Kind: "simulate", RequestID: "r-0123456789ab", Retries: 2, Payload: imagePayload}, true},
		{walRecord{Op: opAccepted, ID: "j1", Kind: "sweep", RequestID: "r-1", Tenant: "t-a", Retries: 3, Payload: json.RawMessage(`{"figure":"4","seed":2}`)}, true},
		{walRecord{Op: opAccepted, ID: "a b~!#$%()*+,-./:;=?@[]^_`{|}", Tenant: " "}, true},
		{walRecord{Op: opAccepted, ID: "j1", Retries: 999999999999999999}, true},
		{walRecord{Op: opAccepted, ID: "j1", Retries: 1000000000000000000}, false},
		{walRecord{Op: opAccepted, ID: "j1", Retries: -1}, false},
		{walRecord{Op: opAccepted, ID: "j1", Payload: json.RawMessage(`null`)}, true},
		{walRecord{Op: opAccepted, ID: "j1", Payload: json.RawMessage(`"x"`)}, true},
		{walRecord{Op: opAccepted, ID: "j1", Payload: json.RawMessage(` [1, 2] `)}, true}, // Marshal compacts it
		{walRecord{Op: opAccepted, ID: "j1", Payload: json.RawMessage(`{"a":"<&>"}`)}, true},
		{walRecord{Op: opAccepted, ID: "<&>"}, false}, // Marshal escapes all three
		{walRecord{Op: opAccepted, ID: "j1", Kind: `q"uote`}, false},
		{walRecord{Op: opAccepted, ID: "j1", RequestID: `back\slash`}, false},
		{walRecord{Op: opAccepted, ID: "j1", Tenant: "tab\t"}, false},
		{walRecord{Op: opAccepted, ID: "é"}, false},
		{walRecord{Op: opStarted, ID: "j1"}, false},
		{walRecord{Op: opSucceeded, ID: "j1", Kind: "simulate"}, false},
		{walRecord{Op: "", ID: "j1", Payload: json.RawMessage(`{}`)}, false},
	} {
		b, err := json.Marshal(c.rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := checkAccepted(t, b); got != c.taken {
			t.Errorf("acceptedRecord(%q) accepted = %v, want %v", b, got, c.taken)
		}
	}
	// Other spellings. Some are read the decoder's way, the rest are
	// declined: the decoder accepts some of those and fails others.
	for _, c := range []struct {
		s     string
		taken bool
	}{
		{`{"op":"accepted","id":"<&>"}`, true},
		{`{"op":"accepted","id":"j1","kind":""}`, true},
		{`{"op":"accepted","id":"j1","payload":{"a":"}"}}`, true},
		{` {"op":"accepted","id":"j1"}`, false},
		{`{"op":"accepted","id":"j1"} `, false},
		{`{"op":"accepted", "id":"j1"}`, false},
		{`{"op":"accepted","id":"j1","payload": {}}`, false},
		{`{"op":"accepted","id":"j1","payload":{} }`, false},
		{"{\"op\":\"accepted\",\"id\":\"j1\",\"payload\":\t1\n}", false},
		{`{"op":"accepted","id":"j1","payload":}`, false},
		{`{"op":"accepted","id":"j1","payload":{}`, false},
		{`{"op":"accepted","id":"j1","payload":{"a":}}`, false},
		{`{"op":"accepted","id":"j1","payload":1,"payload":2}`, false},
		{`{"op":"accepted","id":"j1","payload":1,"x":2}`, false},
		{`{"op":"accepted","id":"j1","retries":0}`, false},
		{`{"op":"accepted","id":"j1","retries":01}`, false},
		{`{"op":"accepted","id":"j1","retries":-1}`, false},
		{`{"op":"accepted","id":"j1","retries":1.5}`, false},
		{`{"op":"accepted","id":"j1","retries":1e2}`, false},
		{`{"op":"accepted","id":"j1","retries":9223372036854775808}`, false},
		{`{"op":"accepted","id":"j1","retries":}`, false},
		{`{"op":"accepted","id":"j1","retries":"3"}`, false},
		{`{"op":"accepted","id":"j1","tenant":"t","kind":"k"}`, false},
		{`{"op":"accepted","id":"j1","kind":"a","kind":"b"}`, false},
		{`{"op":"accepted","id":"j1","id":"j2"}`, false},
		{`{"op":"accepted","id":"j1","Kind":"k"}`, false},
		{`{"op":"accepted","id":"j1",}`, false},
		{`{"op":"accepted","id":"j1"}}`, false},
		{`{"op":"accepted","id":"j1"`, false},
		{`{"op":"accepted","id":"j1","kind":"simu`, false},
		{`{"op":"accepted","id":"a\"b"}`, false},
		{`{"op":"accepted","id":"\` + `u0061"}`, false}, // "a", escaped
		{`{"id":"j1","op":"accepted"}`, false},
		{`{"op":"Accepted","id":"j1"}`, false},
		{`{"op":"accepted"}`, false},
		{`{"op":"accepted","id":7}`, false},
		{``, false},
		{`}`, false},
		{`{"op":"accepted","id":"`, false},
	} {
		if got := checkAccepted(t, []byte(c.s)); got != c.taken {
			t.Errorf("acceptedRecord(%q) accepted = %v, want %v", c.s, got, c.taken)
		}
	}

	// Property: marshalled records over strings drawn from every byte
	// class, retry counts around the digit bound and payloads of every
	// JSON kind, and the same bytes with one byte changed.
	alphabet := []string{"a", "Z", "0", "-", " ", "~", `"`, `\`, "\n", "\x00", "\x1f", "\x7f", "é", "\xff", "<", "{", "}", ":", ","}
	retries := []int{0, 1, 7, 10, 99, 123456789012345678, 999999999999999999, 1000000000000000000, -1}
	payloads := []json.RawMessage{nil, json.RawMessage(`null`), json.RawMessage(`{}`), json.RawMessage(`[1,"<"]`),
		json.RawMessage(`"x"`), json.RawMessage(`0`), json.RawMessage(`-1.5e3`), json.RawMessage(`true`), imagePayload}
	str := func(r *rng.Source) string {
		var s strings.Builder
		for n := r.Intn(5); n > 0; n-- {
			s.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return s.String()
	}
	r := rng.New(31)
	accepted := 0
	for i := 0; i < 20000; i++ {
		rec := walRecord{Op: opAccepted, ID: str(r)}
		if r.Intn(16) == 0 {
			rec.Op = allOps[r.Intn(len(allOps))]
		}
		if r.Intn(2) == 0 {
			rec.Kind = str(r)
		}
		if r.Intn(2) == 0 {
			rec.RequestID = str(r)
		}
		if r.Intn(3) == 0 {
			rec.Tenant = str(r)
		}
		if r.Intn(2) == 0 {
			rec.Retries = retries[r.Intn(len(retries))]
		}
		rec.Payload = payloads[r.Intn(len(payloads))]
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if checkAccepted(t, b) {
			accepted++
		}
		b[r.Intn(len(b))] = alphabet[r.Intn(len(alphabet))][0]
		checkAccepted(t, b)
	}
	if accepted < 1000 {
		t.Fatalf("the property exercised only %d accepted records", accepted)
	}
}

// segmentedWAL appends records through journal writers, reopening the
// writer before an append once its segment has reached segment bytes:
// the log spans several segments, cut where a writer rotating at that
// size would cut it.
type segmentedWAL struct {
	t       testing.TB
	dir     string
	segment int64
	w       *journal.Writer
}

func (s *segmentedWAL) append(rec []byte) {
	s.t.Helper()
	if s.w != nil && s.w.Stats().SegmentBytes >= s.segment {
		s.close()
	}
	if s.w == nil {
		w, err := journal.Open(s.dir, journal.Options{})
		if err != nil {
			s.t.Fatal(err)
		}
		s.w = w
	}
	if err := s.w.Append(context.Background(), rec); err != nil {
		s.t.Fatal(err)
	}
}

// close closes the current writer, if any.
func (s *segmentedWAL) close() {
	s.t.Helper()
	if s.w == nil {
		return
	}
	if err := s.w.Close(); err != nil {
		s.t.Fatal(err)
	}
	s.w = nil
}

// FuzzRecoverMatchesReference appends fuzzed records through a journal
// writer and holds Recover to referenceRecover on the log: the same jobs
// (reflect.DeepEqual), the same ReplayStats, the same error text. The
// input's records are separated by 0x1e, the separator of JSON text
// sequences (RFC 7464), which no JSON text contains.
func FuzzRecoverMatchesReference(f *testing.F) {
	marshal := func(recs ...walRecord) []string {
		out := make([]string, len(recs))
		for i, rec := range recs {
			b, err := json.Marshal(rec)
			if err != nil {
				f.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}
	for _, recs := range [][]string{
		// The image's shape: an acceptance closed, one left open.
		marshal(walRecord{Op: opAccepted, ID: "j000001-0123456789ab", Kind: "simulate", RequestID: "r-0123456789ab", Retries: 2, Payload: imagePayload},
			walRecord{Op: opSucceeded, ID: "j000001-0123456789ab"},
			walRecord{Op: opAccepted, ID: "j000002-0123456789ab", Kind: "simulate", RequestID: "r-0123456789ac", Retries: 2, Payload: imagePayload}),
		// A log with narration, every op and every optional field.
		marshal(cannedJobsWAL()...),
		// Escapes: <&> as json.Marshal writes it, and as the literal bytes.
		marshal(walRecord{Op: opAccepted, ID: "<&>", Kind: "<&>"}, walRecord{Op: opCanceled, ID: "<&>"}),
		{`{"op":"accepted","id":"<&>","tenant":"<"}`, `{"op":"started","id":"<&>"}`},
		// Retry counts: zero, negative, a leading zero, past int64, the
		// digit bound and one past it.
		{`{"op":"accepted","id":"j1","retries":0}`},
		{`{"op":"accepted","id":"j1","retries":-1}`},
		{`{"op":"accepted","id":"j1","retries":01}`, `{"op":"accepted","id":"j2"}`},
		{`{"op":"accepted","id":"j1","retries":9223372036854775808}`},
		{`{"op":"accepted","id":"j1","retries":999999999999999999}`, `{"op":"accepted","id":"j2","retries":1000000000000000000}`},
		// Payloads: null, padded with whitespace, invalid, empty.
		{`{"op":"accepted","id":"j1","payload":null}`},
		{`{"op":"accepted","id":"j1","payload": {"a":1}}`, `{"op":"accepted","id":"j2","payload":[1] }`, "{\"op\":\"accepted\",\"id\":\"j3\",\"payload\":\t\"x\"\n}"},
		{`{"op":"accepted","id":"j0"}`, `{"op":"accepted","id":"j1","payload":{"a":}}`, `{"op":"succeeded","id":"j0"}`},
		{`{"op":"accepted","id":"j1","payload":}`},
		// Keys swapped, duplicated, and of another case.
		{`{"op":"accepted","kind":"simulate","id":"j1"}`, `{"op":"accepted","id":"j2","tenant":"t","kind":"k"}`, `{"id":"j3","op":"accepted"}`},
		{`{"op":"accepted","id":"j1","kind":"a","kind":"b"}`, `{"op":"accepted","id":"j1","id":"j2"}`, `{"op":"accepted","id":"j3","payload":1,"payload":2}`},
		{`{"op":"accepted","id":"j1","Kind":"k","ID":"j2"}`},
		// Truncated records.
		{`{"op":"accepted","id":"j0"}`, `{"op":"accepted","id":"j1","kind":"simu`},
		{`{"op":"accepted","id":"j1","payload":{"a":1}`},
		{`{"op":"accepted","id":"j1"`, ``},
		// Re-acceptance: after a restart, and after the terminal record.
		{`{"op":"accepted","id":"j1","kind":"a"}`, `{"op":"accepted","id":"j1","kind":"b"}`, `{"op":"failed","id":"j1"}`, `{"op":"accepted","id":"j1","kind":"c"}`},
	} {
		f.Add([]byte(strings.Join(recs, "\x1e")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := bytes.Split(data, []byte{0x1e})
		if len(recs) > 64 {
			return // long logs add no shape, only time
		}
		dir := t.TempDir()
		w := &segmentedWAL{t: t, dir: dir, segment: 256}
		for _, rec := range recs {
			w.append(rec)
		}
		w.close()
		want, wantSt, wantErr := referenceRecover(dir)
		got, gotSt, gotErr := Recover(context.Background(), dir)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		if gotSt != wantSt {
			t.Fatalf("stats %+v, reference %+v", gotSt, wantSt)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Recover and the reference disagree\n got: %+v\nwant: %+v", got, want)
		}
	})
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
		w := &segmentedWAL{t: t, dir: dir, segment: 2048}
		add := func(rec walRecord) {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			w.append(b)
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
		w.close()
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
// JSON at all, JSON of the wrong type, or a near miss of the bare or the
// acceptance shape.
func TestRecoverBadRecordFailsLoudly(t *testing.T) {
	for _, bad := range []string{
		"not json", `{"op":"accepted","id":"j1","retries":"x"}`, `{"op":"started","id":"j1"`, `{"op":"started","id":7}`,
		`{"op":"started","id":"j1"}}`, "{\"op\":\"started\",\"id\":\"j\x01\"}",
		`{"op":"accepted","id":"j1","retries":01}`, `{"op":"accepted","id":"j1","retries":9223372036854775808}`,
		`{"op":"accepted","id":"j1","payload":{"a":}}`, `{"op":"accepted","id":"j1","payload":}`,
		`{"op":"accepted","id":"j1","kind":"simulate"`, "{\"op\":\"accepted\",\"id\":\"j\x01\"}",
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

// TestAcceptedRecordAllocatesOnlyItsCopies: an acceptance costs Recover
// the copies it keeps — id, kind, request id and payload here — and no
// decode.
func TestAcceptedRecordAllocatesOnlyItsCopies(t *testing.T) {
	b, err := json.Marshal(walRecord{Op: opAccepted, ID: "j000001-0123456789ab", Kind: "simulate",
		RequestID: "r-0123456789ab", Retries: 2, Payload: imagePayload})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := acceptedRecord(b); !ok {
			t.Fatalf("declined %q", b)
		}
	}); n != 4 {
		t.Fatalf("an image-shaped acceptance cost %.0f allocations, want 4", n)
	}
}

// imagePayload is a 150-byte simulate request, the size of the
// benchmark crash image's.
var imagePayload = json.RawMessage(`{"workload":"minife","nodes":16,"iters":2,"mtbce_ns":500000000,"mode":"firmware-emca","seed":1,"reps":1,"pad":"` + strings.Repeat("x", 37) + `"}`)

// imageShapedWAL writes a jobs WAL with the shape of the benchmark's
// crash image: `finished` accepted/succeeded pairs — triples with a
// started record between, as older daemons wrote them, when narrated —
// then `open` accepted-only jobs, every acceptance carrying imagePayload.
func imageShapedWAL(tb testing.TB, dir string, finished, open int, narrated bool) {
	tb.Helper()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < finished+open; i++ {
		id := fmt.Sprintf("j%06d-0123456789ab", i)
		recs := []walRecord{{Op: opAccepted, ID: id, Kind: "simulate", RequestID: "r-0123456789ab", Retries: 2, Payload: imagePayload}}
		if i < finished && narrated {
			recs = append(recs, walRecord{Op: opStarted, ID: id})
		}
		if i < finished {
			recs = append(recs, walRecord{Op: opSucceeded, ID: id})
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

// BenchmarkRecover is jobs.Recover alone over the image-shaped WAL, 64
// jobs recovered: live is the log the queue writes, 8 064 records;
// narrated is an older daemon's, 12 064.
func BenchmarkRecover(b *testing.B) {
	for _, c := range []struct {
		name     string
		narrated bool
		records  int
	}{{"live", false, 2*4000 + 64}, {"narrated", true, 3*4000 + 64}} {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			imageShapedWAL(b, dir, 4000, 64, c.narrated)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pending, st, err := Recover(context.Background(), dir)
				if err != nil || len(pending) != 64 || st.Records != c.records {
					b.Fatalf("recover: %d pending, %+v, %v", len(pending), st, err)
				}
			}
		})
	}
}
