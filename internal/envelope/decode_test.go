package envelope

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// fuzzDoc is the document FuzzDecode reads: string, number, slice and
// nested fields.
type fuzzDoc struct {
	Name  string      `json:"name"`
	Count int         `json:"count"`
	Rate  float64     `json:"rate"`
	Tags  []string    `json:"tags"`
	Inner fuzzInner   `json:"inner"`
	Items []fuzzInner `json:"items"`
}

type fuzzInner struct {
	ID   int64  `json:"id"`
	Note string `json:"note"`
}

var (
	docKeys   = []string{"name", "count", "rate", "tags", "inner", "items"}
	innerKeys = []string{"id", "note"}
)

// knownKeys reports whether every object in tree — the document, inner
// and each element of items — has only keys of its struct, matched the
// way encoding/json matches them (case-insensitively).
func knownKeys(tree any) bool {
	doc, ok := tree.(map[string]any)
	if !ok {
		return true // not an object: the type check decides
	}
	if !keysIn(doc, docKeys) {
		return false
	}
	for k, v := range doc {
		switch {
		case strings.EqualFold(k, "inner"):
			if !innerKnown(v) {
				return false
			}
		case strings.EqualFold(k, "items"):
			items, _ := v.([]any)
			for _, it := range items {
				if !innerKnown(it) {
					return false
				}
			}
		}
	}
	return true
}

func innerKnown(v any) bool {
	m, ok := v.(map[string]any)
	return !ok || keysIn(m, innerKeys)
}

func keysIn(m map[string]any, names []string) bool {
	for k := range m {
		found := false
		for _, n := range names {
			found = found || strings.EqualFold(k, n)
		}
		if !found {
			return false
		}
	}
	return true
}

// decodeProbes are inputs each reader of outside JSON once let through
// or must keep refusing: a misspelled field, a second document, a word
// after the document, a stray closing brace or bracket.
var decodeProbes = []string{
	`{"figures":["4"],"workload":["minife"]}`,
	`{"figure":"4"} {}`,
	`{"figures":["4"]} x`,
	`{"modes":[{"kind":"cell","weight":1}]}}`,
	`{"modes":[{"kind":"cell","weight":1}]}` + "\n]",
}

func TestDecode(t *testing.T) {
	ok := []string{
		`{"name":"a","count":3,"rate":0.5,"tags":["x"],"inner":{"id":7,"note":"n"},"items":[{"id":1},null]}`,
		" \n\t{\"NAME\":\"a\"}\r\n ",
		`null`,
		`{}`,
	}
	for _, in := range ok {
		var d fuzzDoc
		if err := Decode(strings.NewReader(in), &d); err != nil {
			t.Errorf("Decode(%q) = %v", in, err)
		}
	}
	bad := []struct {
		in   string
		want any // the error type errors.As must find
	}{
		{`{"name":"a","nmae":"b"}`, nil},
		{`{"inner":{"id":1,"extra":2}}`, nil},
		{`{"items":[{"id":1},{"note":"n","x":0}]}`, nil},
		{`{"name":"a"} {}`, new(*TrailingDataError)},
		{`{"name":"a"}}`, new(*TrailingDataError)},
		{`{"name":"a"}]`, new(*TrailingDataError)},
		{`{"name":"a"} "`, new(*TrailingDataError)},
		{`{"name":"a"} 1`, new(*TrailingDataError)},
		{`{"name":"a"} 1e400`, new(*TrailingDataError)},
		{`{"name":"a",}`, new(*json.SyntaxError)},
		{`{"count":"3"}`, new(*json.UnmarshalTypeError)},
		{``, nil},
	}
	for _, tc := range bad {
		var d fuzzDoc
		err := Decode(strings.NewReader(tc.in), &d)
		if err == nil {
			t.Errorf("Decode(%q) accepted", tc.in)
			continue
		}
		if tc.want != nil && !errors.As(err, tc.want) {
			t.Errorf("Decode(%q) = %v (%T), want %T", tc.in, err, err, tc.want)
		}
	}
	var te *TrailingDataError
	if err := Decode(strings.NewReader(`{"name":"a"}  x`), new(fuzzDoc)); !errors.As(err, &te) || te.Offset != 12 {
		t.Errorf("trailing data: %v, want a *TrailingDataError at offset 12", err)
	}
}

// TestDecodeKeepsReadErrors: a body over its limit, even one cut in
// the trailing data, is the read error envelope.Error answers 413 —
// not a syntax or trailing-data error.
func TestDecodeKeepsReadErrors(t *testing.T) {
	for _, in := range []string{`{"name":"` + strings.Repeat("a", 64) + `"}`, `{"name":"a"}` + strings.Repeat(" ", 64) + "x"} {
		err := Decode(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(in)), 32), new(fuzzDoc))
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			t.Errorf("Decode of %d bytes under a 32-byte limit = %v, want *http.MaxBytesError", len(in), err)
		}
	}
}

// FuzzDecode: Decode never panics; it accepts exactly the inputs that
// are one JSON document (json.Valid, only whitespace after the value)
// which json.Unmarshal reads into the struct and whose objects have no
// key outside it, and it decodes them to what json.Unmarshal does.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeProbes {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"name":"a","count":3,"rate":0.5,"tags":["x"],"inner":{"id":7},"items":[{"note":"n"}]}`))
	f.Add([]byte(`{"inner":{"id":1,"extra":2}}`))
	f.Add([]byte(`{"Tags":["a"]}` + "\n"))
	// The probes once more in fuzzDoc's own keys, so that the trailing
	// data, not an unknown key, is what must be refused.
	f.Add([]byte(`{"name":"4"} {}`))
	f.Add([]byte(`{"tags":["4"]} x`))
	f.Add([]byte(`{"items":[{"id":1}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got fuzzDoc
		err := Decode(bytes.NewReader(data), &got)

		var want fuzzDoc
		wantErr := json.Unmarshal(data, &want)
		var tree any
		_ = json.Unmarshal(data, &tree)
		accept := wantErr == nil && knownKeys(tree)
		if (err == nil) != accept {
			t.Fatalf("Decode(%q) = %v; json.Unmarshal = %v, known keys %v", data, err, wantErr, knownKeys(tree))
		}
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("Decode accepted %q, which is not one JSON document", data)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		var skip json.RawMessage
		if dec.Decode(&skip) != nil || len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) != 0 {
			t.Fatalf("Decode accepted %q with data after the value", data)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%q) = %+v, json.Unmarshal = %+v", data, got, want)
		}
	})
}
