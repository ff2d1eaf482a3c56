package advise

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// referenceDecodeBatch is decodeBatch as it was before agentLine — every
// line through its own json.Decoder — plus the trailing-data check: the
// oracle FuzzDecodeBatchMatchesReference holds decodeBatch to.
func referenceDecodeBatch(body io.ReadCloser, maxEvents int) ([]Event, error) {
	sc := bufio.NewScanner(http.MaxBytesReader(nil, body, maxIngestBytes))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		if len(events) >= maxEvents {
			return nil, fmt.Errorf("advise: batch exceeds %d events", maxEvents)
		}
		var ev Event
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("advise: line %d: %v", line, err)
		}
		if dec.InputOffset() != int64(len(raw)) {
			return nil, fmt.Errorf("advise: line %d: trailing data after JSON value", line)
		}
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("advise: line %d: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("advise: read batch: %v", err)
	}
	return events, nil
}

// fuzzMaxEvents is the batch cap both decoders run under in the fuzz
// target, small so a seed can exceed it.
const fuzzMaxEvents = 8

// decodeSeeds are the fuzz target's seed bodies: the shapes node agents
// and tracegen send, and every near miss of them that must go to
// encoding/json.
func decodeSeeds() []string {
	const line = `{"tenant":"tenant-1","node":"node-0001","ts_ns":1700000000123456789,"addr":401739784,"bank":3}`
	many := strings.Repeat(line+"\n", fuzzMaxEvents+1)
	return []string{
		line + "\n" + line + "\n",
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16}`,               // bank absent
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"bank":0}`,      // bank 0
		`{"tenant":"a","node":"b","ts_ns":1,"addr":0,"bank":7}`,       // addr 0
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":"0x47"}`, // synd
		`{"tenant":"tracegen","node":"node-0","ts_ns":11854556745283,"addr":202986040,"bank":4,"synd":"column"}` + "\n" +
			`{"tenant":"tracegen","node":"node-0","ts_ns":11854557107825,"addr":94810680,"bank":0,"synd":"cell-transient"}`, // tracegen -fault-mix
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":""}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":"a\"b"}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":"cell"}`,
		"{\"tenant\":\"a\",\"node\":\"b\",\"ts_ns\":1,\"addr\":16,\"synd\":\"c\tll\"}",
		"{\"tenant\":\"a\",\"node\":\"b\",\"ts_ns\":1,\"addr\":16,\"synd\":\"c\xffll\"}",
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":"\u0063ell"}`, // escape
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":"x}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":7}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":"x","bank":2}`, // synd before bank
		`{"tenant":"a","node":"b","ts_ns":1,"addr":16,"synd":"` + strings.Repeat("s", 65) + `"}`,
		`{"tenant":"a","node":"b","ts_ns":01,"addr":16}`, // leading zero
		`{"tenant":"a","node":"b","ts_ns":1,"addr":00}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":18446744073709551615}`, // 20 digits, in range
		`{"tenant":"a","node":"b","ts_ns":1,"addr":18446744073709551616}`, // 20 digits, out of range
		`{"tenant":"a","node":"b","ts_ns":9223372036854775807,"addr":1}`,  // 2^63-1
		`{"tenant":"a","node":"b","ts_ns":9223372036854775808,"addr":1}`,  // 2^63
		`{"tenant":"a","node":"b","ts_ns":-5,"addr":1}`,
		`{"tenant":"a","node":"b","ts_ns":0,"addr":1}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":1,"bank":9223372036854775808}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":1,"bank":-1}`,
		`{"tenant":"a","node":"b","ts_ns":1.5,"addr":1}`,
		`{"tenant":"a","node":"b","ts_ns":1e3,"addr":1}`,
		`{"tenant":"\u0061cme","node":"b","ts_ns":1,"addr":1}`, // unicode escape
		`{"Tenant":"a","node":"b","ts_ns":1,"addr":1}`,
		`{"TENANT":"a","NODE":"b","TS_NS":1,"ADDR":1}`,
		`{"tenant":"a","tenant":"c","node":"b","ts_ns":1,"addr":1}`, // duplicate key
		`{"node":"b","tenant":"a","ts_ns":1,"addr":1}`,              // reordered
		`{"tenant":"a","node":"b","addr":1,"ts_ns":1}`,
		`{"tenant":"a<b>&c","node":"nœud","ts_ns":1,"addr":1}`,
		`{"tenant":"a\"b","node":"b","ts_ns":1,"addr":1}`,
		`{"tenant":"a\\b","node":"b","ts_ns":1,"addr":1}`,
		"{\"tenant\":\"a\tb\",\"node\":\"b\",\"ts_ns\":1,\"addr\":1}",
		"{\"tenant\":\"a\x7fb\",\"node\":\"b\",\"ts_ns\":1,\"addr\":1}",
		`{"tenant":"a b","node":"b","ts_ns":1,"addr":1}`,
		`{"tenant":"","node":"b","ts_ns":1,"addr":1}`,
		`{"tenant":"a","node":"` + strings.Repeat("n", 65) + `","ts_ns":1,"addr":1}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":1} garbage`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":1}{"tenant":"a","node":"c","ts_ns":1,"addr":1}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":1,"extra":1}`,
		`{"tenant": "a","node":"b","ts_ns":1,"addr":1}`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":1`,
		`{"tenant":"a","node":"b","ts_ns":1,"addr":1}}`,
		"\r\n" + line + "\r\n\r\n  \t\n" + line + "\r\n", // CRLF and blank lines
		"\n\n",
		"",
		strings.Repeat(" ", 8*1024) + line + "\n" + line,         // past the scanner's first 4 KiB
		line + "\n" + strings.Repeat(" ", 64*1024) + line + "\n", // a line over 64 KiB
		many, // fuzzMaxEvents+1 lines
	}
}

// FuzzDecodeBatchMatchesReference: for any body, decodeBatch and the
// all-encoding/json reference return deep-equal events or fail with the
// same error, line number included.
func FuzzDecodeBatchMatchesReference(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeBatch(io.NopCloser(bytes.NewReader(body)), fuzzMaxEvents)
		want, wantErr := referenceDecodeBatch(io.NopCloser(bytes.NewReader(body)), fuzzMaxEvents)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q:\n got error %v\nwant error %v", body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\n got %+v\nwant %+v", body, got, want)
		}
	})
}

// TestAgentLinesAllocateOnlyTheSlice: a batch of recognised lines
// allocates its two names once and otherwise only the events slice's
// growth — the same count at 16 lines as at 1024, less the growth.
func TestAgentLinesAllocateOnlyTheSlice(t *testing.T) {
	extra := func(n int) float64 {
		streams := agentStreams(t, 1, (n+agentBatch-1)/agentBatch)
		body := []byte(agentBody(0, streams[0][:n], 0))
		allocs := testing.AllocsPerRun(20, func() {
			if evs, err := decodeBatch(io.NopCloser(bytes.NewReader(body)), 10000); err != nil || len(evs) != n {
				t.Fatalf("decodeBatch: %d events, %v", len(evs), err)
			}
		})
		var evs []Event
		for i := 0; i < n; i++ {
			if len(evs) == cap(evs) {
				allocs-- // the slice's own growth
			}
			evs = append(evs, Event{})
		}
		return allocs
	}
	if small, large := extra(16), extra(1024); small != large {
		t.Fatalf("allocations beyond the events slice: %v at 16 lines, %v at 1024", small, large)
	}
}
