// mcasignature reproduces the paper's Fig. 2 on the node model: the OS
// noise signatures of a Skylake node under correctable-error injection
// with each logging configuration, as seen by a selfish-style detour
// detector.
//
//	go run ./examples/mcasignature
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	sigs, table, err := core.Figure2(1)
	if err != nil {
		log.Fatal(err)
	}
	if err := table.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Show the firmware signature's big detours on core 0: the ~7 ms
	// SMI every injection and the ~500 ms firmware decode every 10th
	// (Fig. 2d's two groups of tall bars).
	fmt.Println("\nfirmware-mode detours > 1ms on core 0 (Fig. 2d's tall bars):")
	t := report.New("", "time", "duration", "source")
	for _, d := range sigs["firmware"].CoreDetours(0) {
		if d.Dur < 1_000_000 {
			continue
		}
		t.AddRow(report.Nanos(d.Start), report.Nanos(d.Dur), d.Source.String())
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: every CE halts all cores ~7ms in SMM; every 10th CE the")
	fmt.Println("firmware decode adds ~500ms. The dry-run shows injection setup is free.")
}
