package advise

import (
	"sort"

	"repro/internal/faultmodel"
)

// setCap bounds every distinct-value set in a footprint. Classification
// only needs "one vs a few vs many", so 64 retained values is plenty;
// the bound is what keeps per-node state O(1) under millions of nodes.
const setCap = 64

// boundedSet tracks up to setCap distinct uint64 values, kept sorted
// ascending. When the cap is exceeded the *largest* values are dropped:
// "the setCap smallest distinct members of the union" is a function of
// the value set alone, never of arrival order, which keeps footprint
// merges order-independent. Saturation (len == setCap) reads as "at
// least setCap distinct values".
type boundedSet struct {
	xs []uint64
}

func (s *boundedSet) add(v uint64) {
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] >= v })
	if i < len(s.xs) && s.xs[i] == v {
		return
	}
	if len(s.xs) == setCap {
		if i == setCap {
			return // larger than everything retained
		}
		s.xs = s.xs[:setCap-1] // drop the largest to make room
	}
	s.xs = append(s.xs, 0)
	copy(s.xs[i+1:], s.xs[i:])
	s.xs[i] = v
}

func (s *boundedSet) size() int { return len(s.xs) }

// Footprint is the bounded address-footprint sketch of one node's CE
// stream, from which the fault mode is classified. Like the estimator,
// it is a commutative aggregate: distinct-value sets under
// keep-smallest union plus a monotone sample counter.
type Footprint struct {
	samples uint64
	addrs   boundedSet
	pages   boundedSet
	rows    boundedSet
	cols    boundedSet
	banks   boundedSet
}

// Add ingests one CE address observation.
func (f *Footprint) Add(addr uint64, bank int) {
	page, row, col := faultmodel.Decompose(addr)
	f.samples++
	f.addrs.add(addr)
	f.pages.add(page)
	f.rows.add(row)
	f.cols.add(col)
	f.banks.add(uint64(bank))
}

// Samples returns how many observations the footprint aggregates.
func (f *Footprint) Samples() uint64 { return f.samples }

// Classification is the classifier's verdict.
type Classification struct {
	// Kind is the inferred faultmodel.FaultKind; only meaningful when
	// Known is set.
	Kind faultmodel.FaultKind
	// Known is false while the sample count is below MinSamples — the
	// policy layer then treats the node's fault mode as unclassified
	// and recommends conservatively.
	Known bool
	// Confidence in (0, 1]: grows with sample count, discounted when
	// the footprint is not sharply of one mode (mixed fault
	// populations land here).
	Confidence float64
}

// DefaultMinSamples is the classification floor: below it the address
// footprint of a row/column/bank fault is indistinguishable from a
// couple of unlucky cells.
const DefaultMinSamples = 8

// Classify maps the footprint onto faultmodel's cell/row/column/bank
// taxonomy:
//
//	one distinct address            -> cell
//	one distinct row                -> row  (addresses spread inside it)
//	one distinct column coordinate  -> column (same offset, many rows)
//	otherwise                       -> bank (scattered)
//
// A mixed fault population blurs these (a cell plus a column fault
// shows >1 row and >1 column), so it degrades toward bank — the
// conservative verdict, since bank-scale footprints are the ones page
// retirement cannot contain — with reduced confidence.
func (f *Footprint) Classify(minSamples int) Classification {
	if minSamples <= 0 {
		minSamples = DefaultMinSamples
	}
	if f.samples < uint64(minSamples) {
		return Classification{}
	}
	base := float64(f.samples) / float64(f.samples+DefaultMinSamples)
	c := Classification{Known: true}
	switch {
	case f.addrs.size() == 1:
		c.Kind = faultmodel.FaultCell
		c.Confidence = base
	case f.rows.size() == 1:
		c.Kind = faultmodel.FaultRow
		c.Confidence = base * spreadFactor(f.cols.size())
	case f.cols.size() == 1:
		c.Kind = faultmodel.FaultColumn
		c.Confidence = base * spreadFactor(f.rows.size())
	default:
		c.Kind = faultmodel.FaultBank
		spread := f.rows.size()
		if f.cols.size() < spread {
			spread = f.cols.size()
		}
		c.Confidence = base * spreadFactor(spread)
	}
	return c
}

// spreadFactor discounts verdicts that rest on only 2-3 distinct
// coordinates: a "column" seen across two rows is weak evidence, one
// seen across eight rows is conclusive.
func spreadFactor(distinct int) float64 {
	const conclusive = 4
	if distinct >= conclusive {
		return 1
	}
	return float64(distinct) / conclusive
}
