package faultmodel

import "testing"

func TestFaultKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultCell: "cell", FaultRow: "row", FaultColumn: "column", FaultBank: "bank",
	}
	if len(Kinds()) != len(want) {
		t.Fatalf("Kinds() = %v, want %d kinds", Kinds(), len(want))
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
		if back, err := ParseKind(s); err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", s, back, err)
		}
	}
	if _, err := ParseKind("rank"); err == nil {
		t.Fatal("ParseKind accepted an unknown kind")
	}
}

func TestFootprintOrdering(t *testing.T) {
	if !(FaultCell.FootprintPages() < FaultRow.FootprintPages() &&
		FaultRow.FootprintPages() < FaultColumn.FootprintPages() &&
		FaultColumn.FootprintPages() < FaultBank.FootprintPages()) {
		t.Fatal("footprints not ordered cell < row < column < bank")
	}
	// The row footprint is the geometry's: an 8 KiB row is two pages.
	first, _, _ := Decompose(Compose(7, 0))
	last, _, _ := Decompose(Compose(7, numCols-1))
	if int(last-first)+1 != FaultRow.FootprintPages() {
		t.Fatalf("a row spans pages %d..%d, FootprintPages says %d", first, last, FaultRow.FootprintPages())
	}
}
