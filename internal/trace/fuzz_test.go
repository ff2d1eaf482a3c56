package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadText must never panic on arbitrary input, and every trace it
// accepts must be valid and survive WriteText exactly: the written text
// reads back as an equal trace, and writing that trace again gives the
// same bytes.
func FuzzReadText(f *testing.F) {
	f.Add("trace demo\nranks 2\nrank 0\ncalc 100\nsend 1 8 0\nrank 1\nrecv 0 8 0\n")
	f.Add("ranks 1\nrank 0\nallreduce 64\nbcast 0 8\nwaitall\n")
	f.Add("# comment\nranks 3\nrank 2\nbcast 0 8\n")
	f.Add("ranks 2\nrank 0\nisend 1 8 0 1\nwait 1\nrank 1\nirecv 0 8 0 2\nwait 2\n")
	f.Add("garbage\n")
	f.Add("")
	f.Add("ranks 2\nrank 0\nsend 4294967297 8 0\nrank 1\nrecv 0 8 0\n")
	f.Add("ranks 2\nrank 0\ncalc 5\nranks 1\nrank 0\ncalc 1\n")
	f.Add("ranks 1\nrank 0\ncalc 100 junk extra\n")
	f.Add("ranks 4194304\n")
	f.Add("ranks 2\nrank 0\nsend 7 8 0\nrank 1\n")
	f.Add("trace a\n# c\nranks 2\n  rank 0\n  calc +007\nrank 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadText(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted an invalid trace: %v", err)
		}
		var first bytes.Buffer
		if err := WriteText(&first, tr); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		back, err := ReadText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v", err)
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
		var second bytes.Buffer
		if err := WriteText(&second, back); err != nil {
			t.Fatalf("re-read trace failed to encode: %v", err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("writer output is not a fixed point:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
