package faultmodel

import "fmt"

// FaultKind is a DRAM fault mode — the taxonomy of the Cielo and DDR4
// field studies, shared by the mixture spec, the advisor's footprint
// classifier and the page-retirement replay.
type FaultKind int

// Fault modes, in decreasing page-locality.
const (
	FaultCell FaultKind = iota
	FaultRow
	FaultColumn
	FaultBank
	// NumKinds is the number of fault modes, for arrays indexed by kind.
	NumKinds
)

// String returns the mode name.
func (k FaultKind) String() string {
	switch k {
	case FaultCell:
		return "cell"
	case FaultRow:
		return "row"
	case FaultColumn:
		return "column"
	case FaultBank:
		return "bank"
	}
	return fmt.Sprintf("faultkind(%d)", int(k))
}

// FootprintPages returns how many distinct 4 KiB pages a fault of this
// kind is budgeted to produce CEs on. Cell faults hit one page; a row
// (8 KiB in this package's geometry) spans two; columns and banks
// scatter widely. The advise policy layer compares this footprint
// against the OS page budget to decide whether retirement can contain
// a classified fault.
func (k FaultKind) FootprintPages() int {
	switch k {
	case FaultCell:
		return 1
	case FaultRow:
		return 2
	case FaultColumn:
		return 512
	case FaultBank:
		return 4096
	}
	return 1
}

// Kinds returns the fault modes in taxonomy order.
func Kinds() []FaultKind {
	out := make([]FaultKind, 0, NumKinds)
	for k := FaultKind(0); k < NumKinds; k++ {
		out = append(out, k)
	}
	return out
}

// ParseKind maps a mode name ("cell", "row", "column", "bank") back to
// its FaultKind.
func ParseKind(name string) (FaultKind, error) {
	for k := FaultKind(0); k < NumKinds; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faultmodel: unknown fault kind %q (want cell, row, column or bank)", name)
}
