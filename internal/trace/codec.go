package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// Text format
//
// The one trace file format: line-oriented, in the spirit of
// LogGOPSim's GOAL schedules.
//
//	trace <name>
//	ranks <n>
//	rank 0
//	  calc <ns>
//	  send <peer> <bytes> <tag>
//	  isend <peer> <bytes> <tag> <req>
//	  wait <req>
//	  bcast <root> <bytes>
//	  ...
//	rank 1
//	  ...
//	rank <n-1>
//	  ...
//
// Each op is its mnemonic (OpKind.String) followed by the operands
// grammar lists for its kind. ReadText accepts exactly what WriteText
// writes, apart from blank lines, '#' comments and indentation.

// operand is one integer field of Op as the text format spells it.
type operand uint8

const (
	peer operand = iota // Op.Peer: the p2p peer or the collective root
	size                // Op.Size
	tag                 // Op.Tag
	req                 // Op.Req
	dur                 // Op.Dur
)

var operandNames = [...]string{peer: "peer", size: "size", tag: "tag", req: "req", dur: "duration"}

// field returns o's field in op. Exactly one of the two is non-nil.
func (o operand) field(op *Op) (*int32, *int64) {
	switch o {
	case peer:
		return &op.Peer, nil
	case tag:
		return &op.Tag, nil
	case req:
		return &op.Req, nil
	case size:
		return nil, &op.Size
	}
	return nil, &op.Dur
}

// grammar lists, for each kind, the operands written after its
// mnemonic, in order. It is the text format's one definition of an op
// line: WriteText and ReadText both read it.
var grammar = [numOpKinds][]operand{
	OpCalc:      {dur},
	OpSend:      {peer, size, tag},
	OpRecv:      {peer, size, tag},
	OpIsend:     {peer, size, tag, req},
	OpIrecv:     {peer, size, tag, req},
	OpWait:      {req},
	OpWaitAll:   nil,
	OpBcast:     {peer, size},
	OpAllreduce: {size},
}

var kindByName = func() map[string]OpKind {
	m := make(map[string]OpKind, numOpKinds)
	for k := OpKind(0); k < numOpKinds; k++ {
		m[k.String()] = k
	}
	return m
}()

// WriteText encodes the trace to w in the text format.
func WriteText(w io.Writer, t *Trace) error {
	if strings.ContainsFunc(t.Name, unicode.IsSpace) {
		return fmt.Errorf("trace: cannot encode name %q: it contains white space", t.Name)
	}
	// bw keeps the first write error, and Flush returns it.
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "trace %s\nranks %d\n", t.Name, len(t.Ops))
	var line []byte
	for r, ops := range t.Ops {
		fmt.Fprintf(bw, "rank %d\n", r)
		for _, op := range ops {
			if op.Kind >= numOpKinds {
				return fmt.Errorf("trace: cannot encode kind %d", op.Kind)
			}
			line = append(line[:0], kindNames[op.Kind]...)
			for _, o := range grammar[op.Kind] {
				var v int64
				if v32, v64 := o.field(&op); v32 != nil {
					v = int64(*v32)
				} else {
					v = *v64
				}
				line = strconv.AppendInt(append(line, ' '), v, 10)
			}
			bw.Write(append(line, '\n'))
		}
	}
	return bw.Flush()
}

// ReadText decodes a text trace from r. It accepts at most one trace
// line with at most one name, then exactly one ranks line, then the
// headers rank 0 … rank n-1 in order, each op with exactly its operands
// (peer, tag and req as 32-bit values), and returns the trace only if
// Validate accepts it. Ranks are allocated as their headers are read,
// so memory grows with the input, not with the declared count.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	t := &Trace{}
	named := false
	n := 0 // the declared rank count; 0 until the ranks line
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch f[0] {
		case "trace":
			if named || n > 0 || len(f) > 2 {
				return nil, lineErr(lineNo, "want at most one trace line, before ranks, with at most one name")
			}
			named = true
			if len(f) == 2 {
				t.Name = f[1]
			}
		case "ranks":
			if n > 0 || len(f) != 2 {
				return nil, lineErr(lineNo, "want exactly one ranks line with one count")
			}
			v, err := strconv.ParseInt(f[1], 10, 32)
			if err != nil || v <= 0 {
				return nil, lineErr(lineNo, "bad rank count %q", f[1])
			}
			n = int(v)
		case "rank":
			if n == 0 {
				return nil, lineErr(lineNo, "rank before ranks header")
			}
			if len(f) != 2 || f[1] != strconv.Itoa(len(t.Ops)) || len(t.Ops) == n {
				return nil, lineErr(lineNo, "want rank headers 0 to %d in order, got %q", n-1, strings.Join(f, " "))
			}
			t.Ops = append(t.Ops, nil)
		default:
			kind, ok := kindByName[f[0]]
			if !ok {
				return nil, lineErr(lineNo, "unknown op %q", f[0])
			}
			if len(t.Ops) == 0 {
				return nil, lineErr(lineNo, "op before rank header")
			}
			operands := grammar[kind]
			if len(f)-1 != len(operands) {
				return nil, lineErr(lineNo, "%s takes %d operands, got %d", kind, len(operands), len(f)-1)
			}
			op := Op{Kind: kind}
			for i, o := range operands {
				v32, v64 := o.field(&op)
				bits := 64
				if v32 != nil {
					bits = 32
				}
				v, err := strconv.ParseInt(f[i+1], 10, bits)
				if err != nil {
					return nil, lineErr(lineNo, "bad %s %q for %s", operandNames[o], f[i+1], kind)
				}
				if v32 != nil {
					*v32 = int32(v)
				} else {
					*v64 = v
				}
			}
			last := len(t.Ops) - 1
			t.Ops[last] = append(t.Ops[last], op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
	}
	if n == 0 {
		return nil, ErrEmptyTrace
	}
	if len(t.Ops) != n {
		return nil, fmt.Errorf("trace: ranks declares %d ranks, found %d rank headers", n, len(t.Ops))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func lineErr(lineNo int, format string, a ...any) error {
	return fmt.Errorf("trace: line %d: %s", lineNo, fmt.Sprintf(format, a...))
}
