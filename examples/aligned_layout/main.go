// aligned_layout demonstrates the paper's Section 3: enforcing the
// aligned-active restriction on the synthetic Nangate-like library, the
// area it costs (Table 2 / Fig. 3.2), and the row-failure-probability
// benefit it buys (Table 1), all through one query session: the
// uncorrelated and aligned rows in closed form, the unaligned row by Monte
// Carlo over shared CNT tracks.
//
//	go run ./examples/aligned_layout [-rounds N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"github.com/cnfet/yieldlab"
)

func main() {
	rounds := flag.Int("rounds", 40_000, "Monte Carlo rounds of the unaligned row")
	flag.Parse()
	lib, err := yieldlab.NangateLike45()
	if err != nil {
		log.Fatal(err)
	}

	// 1. Transform the library (one aligned band).
	const wmin = 108.3 // the correlated Wmin the experiments derive
	rep, err := yieldlab.AlignLibrary(lib, yieldlab.AlignOptions{WminNM: wmin, Bands: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aligned-active transform at Wmin = %.1f nm:\n", wmin)
	fmt.Printf("  %d of %d cells pay area (%.1f%% – %.1f%%)\n",
		rep.CellsWithPenalty, len(rep.Changes), rep.MinPenalty*100, rep.MaxPenalty*100)
	for _, ch := range rep.Changes {
		if ch.Penalty > 0 {
			fmt.Printf("    %-12s +%.1f%%\n", ch.Name, ch.Penalty*100)
		}
	}

	// 2. Row-level benefit, all served by one query session. Uncorrelated
	// growth is the paper's Section 2 baseline in closed form,
	// pRF = 1-(1-pF)^MRmin, and aligned rows fail like single devices,
	// pRF = pF. The unaligned row shares CNT tracks partially: Monte Carlo
	// over track realizations.
	ctx := context.Background()
	session, err := yieldlab.NewSession(yieldlab.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// A compact stand-in for the library's lateral offsets; the full
	// experiment extracts them from the synthetic netlist.
	offsets, probs := libraryOffsets()
	row := func(scenario string) yieldlab.QueryResult {
		res, err := session.Evaluate(ctx, yieldlab.QuerySpec{
			Kind: "rowyield", Scenario: scenario, Corner: "worst",
			WidthNM: 142.7, // Table 1 operating point
			Offsets: offsets, OffsetProbs: probs,
			Seed: 1, Rounds: *rounds,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	uncorrelated, unaligned, aligned := row("uncorrelated").RowYield, row("unaligned").RowYield, row("aligned").RowYield
	fmt.Printf("\nrow failure probability (MRmin = %.0f devices per CNT span):\n", uncorrelated.MRmin)
	fmt.Printf("  %-38s pRF = %.2e (closed form)\n", yieldlab.UncorrelatedGrowth, uncorrelated.PRF)
	fmt.Printf("  %-38s pRF = %.2e (± %.0e)\n", yieldlab.DirectionalUnaligned, unaligned.PRF, unaligned.StdErr)
	fmt.Printf("  %-38s pRF = %.2e (closed form, = pF)\n", yieldlab.DirectionalAligned, aligned.PRF)
	fmt.Printf("  device-level pF at this width:        %.2e\n", uncorrelated.DevicePF)
	fmt.Println("\naligned rows fail like single devices: pRF ≈ pF — the 350× of the paper")
}

// libraryOffsets returns 14 equally likely offsets on the library's 20 nm
// grid.
func libraryOffsets() (offsets, probs []float64) {
	offsets = make([]float64, 14)
	probs = make([]float64, 14)
	for i := range offsets {
		offsets[i] = float64(i) * 20
		probs[i] = 1
	}
	return offsets, probs
}
