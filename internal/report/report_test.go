package report

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestASCIIAlignment(t *testing.T) {
	tb := New("demo", "workload", "slowdown")
	tb.AddRow("lulesh", "98.5%")
	tb.AddRow("lammps-lj", "0.3%")
	var buf bytes.Buffer
	if err := tb.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# demo") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5 (title, header, sep, 2 rows)", len(lines))
	}
	// Columns align: "slowdown" starts at the same offset in header and rows.
	headerIdx := strings.Index(lines[1], "slowdown")
	rowIdx := strings.Index(lines[3], "98.5%")
	if headerIdx != rowIdx {
		t.Fatalf("columns misaligned: header at %d, row at %d\n%s", headerIdx, rowIdx, out)
	}
}

func TestASCIILineCount(t *testing.T) {
	tb := New("x", "a")
	tb.AddRow("1")
	tb.AddRow("2")
	var buf bytes.Buffer
	if err := tb.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), buf.String())
	}
}

func TestRowPadding(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.AddRow("1")
	if len(tb.Rows[0]) != 3 {
		t.Fatalf("short row not padded: %v", tb.Rows[0])
	}
	tb.AddRow("1", "2", "3", "4")
	if len(tb.Columns) != 4 {
		t.Fatalf("long row did not extend columns: %v", tb.Columns)
	}
}

func TestCSV(t *testing.T) {
	tb := New("ignored", "sys", "mode", "pct")
	tb.AddRow("cielo", "firmware-emca", "0.42")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "sys,mode,pct\ncielo,firmware-emca,0.42\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestNanos(t *testing.T) {
	cases := map[int64]string{
		0:             "0ns",
		150:           "150ns",
		775000:        "775us",
		133000000:     "133ms",
		5544000000000: "5544s",
		1250:          "1.25us",
		-150:          "-150ns",
	}
	for ns, want := range cases {
		if got := Nanos(ns); got != want {
			t.Fatalf("Nanos(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	cases := map[float64]string{
		0.003:  "0.0030%",
		0.42:   "0.420%",
		7.5:    "7.50%",
		98.6:   "98.6%",
		850.0:  "850.0%",
		0:      "0.000%",
		-12.25: "-12.2%",
	}
	for v, want := range cases {
		if got := Pct(v); got != want {
			t.Fatalf("Pct(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestBar(t *testing.T) {
	if got := Bar(50, 100, 10); got != "#####" {
		t.Fatalf("Bar(50,100,10) = %q", got)
	}
	if got := Bar(0, 100, 10); got != "" {
		t.Fatalf("Bar(0) = %q, want empty", got)
	}
	if got := Bar(1, 100, 10); got != "#" {
		t.Fatalf("tiny bar = %q, want single #", got)
	}
	if got := Bar(500, 100, 10); got != "##########" {
		t.Fatalf("overflow bar = %q", got)
	}
	if got := Bar(5, 0, 10); got != "" {
		t.Fatalf("zero max bar = %q", got)
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.txt")
	tb := New("demo", "a")
	tb.AddRow("1")
	if err := WriteFile(path, tb.WriteASCII); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tb.WriteASCII(&want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds %q (%v), want %q", got, err, want.Bytes())
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if err := WriteFile(filepath.Join(path, "not-a-dir"), tb.WriteASCII); err == nil {
		t.Fatal("create under a regular file succeeded")
	}
}
