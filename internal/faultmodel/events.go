package faultmodel

import "repro/internal/rng"

// DRAM geometry, the one definition the Generator synthesises
// addresses with, the advisor's classifier decomposes them with and
// the retirement replay maps them to pages with: 4 KiB pages, 8 KiB
// rows (two pages per row), column identity as the 8-byte-aligned
// offset within the row — a column fault repeats the same intra-row
// offset across many rows. The row-space and bank counts are
// per-device modeling choices large enough that independent draws
// essentially never collide.
const (
	pageShift = 12
	rowShift  = 13
	colShift  = 3
	numCols   = 1 << (rowShift - colShift)
	numRows   = 1 << 15
	numBanks  = 16

	// PageBytes is the size of the page the OS retires.
	PageBytes = 1 << pageShift
)

// Compose builds the physical address of a column within a row.
func Compose(row, col uint64) uint64 { return row<<rowShift | col<<colShift }

// Decompose splits a physical address into the coordinates the fault
// taxonomy cares about: its page, its row and its column within the
// row.
func Decompose(addr uint64) (page, row, col uint64) {
	return addr >> pageShift, addr >> rowShift, (addr & (1<<rowShift - 1)) >> colShift
}

// Event is one generated CE observation: the arrival time produced by
// the mixture process plus the fault-footprint address, ready for the
// advisor's NDJSON ingest schema.
type Event struct {
	// TimeNanos is ns since the node's stream started, strictly
	// increasing (minimum 1, the ingest schema's floor).
	TimeNanos int64
	// Addr is the failing physical address.
	Addr uint64
	// Bank is the failing bank.
	Bank int
	// Kind is the generating fault mode.
	Kind FaultKind
	// Transient echoes the generating mode's classification.
	Transient bool
}

// footprint is one fault instance's fixed coordinates. Which of them
// repeat across events is what distinguishes the kinds: a cell fault
// repeats the full address, a row fault the row, a column fault the
// intra-row offset, a bank fault only the bank.
type footprint struct {
	row  uint64
	col  uint64
	bank int
}

// genMode is one mode's address state.
type genMode struct {
	src *rng.Source
	fp  footprint
}

// draw picks fresh fault coordinates.
func (g *genMode) draw() {
	g.fp = footprint{
		row:  uint64(g.src.Intn(numRows)),
		col:  uint64(g.src.Intn(numCols)),
		bank: g.src.Intn(numBanks),
	}
}

// addr produces one event address inside the footprint.
func (g *genMode) addr(kind FaultKind) uint64 {
	row, col := g.fp.row, g.fp.col
	switch kind {
	case FaultCell:
		// fixed row and column: one address
	case FaultRow:
		col = uint64(g.src.Intn(numCols))
	case FaultColumn:
		row = uint64(g.src.Intn(numRows))
	default: // bank: scattered
		row = uint64(g.src.Intn(numRows))
		col = uint64(g.src.Intn(numCols))
	}
	return Compose(row, col)
}

// Generator produces one node's CE event stream: the identical arrival
// schedule the Process yields for that (seed, node) under noise.CE —
// address draws live on disjoint streams, so attaching footprints
// never perturbs the timing — with fault-footprint addresses per mode.
// Permanent modes keep one fault instance for the node's lifetime;
// transient modes re-draw the instance at every new burst train (each
// particle strike upsets a fresh location).
type Generator struct {
	modes []compiledMode
	node  *mixNode
	gens  []genMode
	t     int64
}

// Generator builds the event generator for one node. seed and node
// correspond to noise.Config.Seed and the node id: the event times
// equal the cumulative gaps Process produces for that node.
func (s Spec) Generator(seed, node uint64) (*Generator, error) {
	modes, _, err := s.compile()
	if err != nil {
		return nil, err
	}
	// Identical key derivation to the Process under noise.CE: the
	// model hands each node the stream rng.NewStream(seed, node), and
	// the node's first arrival draw takes one Uint64 from it.
	key := rng.NewStream(seed, node).Uint64()
	g := &Generator{
		modes: modes,
		node:  newMixNode(key, modes, s.SkewSigma),
		gens:  make([]genMode, len(modes)),
	}
	for i := range modes {
		gm := &g.gens[i]
		gm.src = rng.NewStream(key, streamAddrBase+uint64(i))
		gm.draw()
	}
	return g, nil
}

// Next returns the node's next CE event.
func (g *Generator) Next() Event {
	mi, gap, newTrain := g.node.step(g.modes)
	g.t += gap
	m := &g.modes[mi]
	gm := &g.gens[mi]
	// A transient fault's footprint is re-drawn at the first CE of
	// every burst train: each activation is a fresh particle strike,
	// not a repeat of a permanent defect.
	if m.transient && newTrain {
		gm.draw()
	}
	ts := g.t
	if ts < 1 {
		ts = 1 // the ingest schema requires ts_ns >= 1
	}
	return Event{
		TimeNanos: ts,
		Addr:      gm.addr(m.kind),
		Bank:      gm.fp.bank,
		Kind:      m.kind,
		Transient: m.transient,
	}
}

// Events generates the node's first n CE events.
func (s Spec) Events(seed, node uint64, n int) ([]Event, error) {
	g, err := s.Generator(seed, node)
	if err != nil {
		return nil, err
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out, nil
}
