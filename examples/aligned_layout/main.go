// aligned_layout demonstrates the paper's Section 3: enforcing the
// aligned-active restriction on the synthetic Nangate-like library, the
// area it costs (Table 2 / Fig. 3.2), and the row-failure-probability
// benefit it buys (Table 1): the uncorrelated baseline in closed form
// through a query session, the directional scenarios by Monte Carlo on the
// correlated row model.
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
	rounds := flag.Int("rounds", 40_000, "Monte Carlo rounds per directional scenario")
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

	// 2. Row-level benefit. Uncorrelated growth is the paper's Section 2
	// baseline in closed form, pRF = 1-(1-pF)^MRmin: the query session
	// serves it, together with the device-level pF at the same width.
	ctx := context.Background()
	session, err := yieldlab.NewSession(yieldlab.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := session.Evaluate(ctx, yieldlab.QuerySpec{
		Kind: "rowyield", Scenario: "uncorrelated", Corner: "worst",
		WidthNM: 142.7, // Table 1 operating point
	})
	if err != nil {
		log.Fatal(err)
	}
	uncorrelated := res.RowYield

	// The directional scenarios share CNT tracks across the row: Monte
	// Carlo over track realizations.
	pitch, err := yieldlab.CalibratedPitch()
	if err != nil {
		log.Fatal(err)
	}
	row := &yieldlab.RowModel{
		Pitch:         pitch,
		PerCNTFailure: yieldlab.WorstCorner().PerCNTFailure(),
		WidthNM:       142.7,
		LCNTNM:        200_000,
		DensityPerUM:  1.8,
		// A compact stand-in for the library's lateral offsets; the full
		// experiment extracts them from the synthetic netlist.
		Offsets: mustOffsets(),
	}
	fmt.Printf("\nrow failure probability (MRmin = %.0f devices per CNT span):\n", uncorrelated.MRmin)
	fmt.Printf("  %-38s pRF = %.2e (closed form)\n", yieldlab.UncorrelatedGrowth, uncorrelated.PRF)
	for _, s := range []yieldlab.RowScenario{
		yieldlab.DirectionalUnaligned,
		yieldlab.DirectionalAligned,
	} {
		est, err := row.EstimateRowFailureParallel(ctx, 1, s, *rounds, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-38s pRF = %.2e (± %.0e)\n", s, est.Mean, est.StdErr)
	}
	fmt.Printf("  device-level pF at this width:        %.2e\n", uncorrelated.DevicePF)
	fmt.Println("\naligned rows fail like single devices: pRF ≈ pF — the 350× of the paper")
}

// mustOffsets builds 14 equally likely offsets on the library's 20 nm grid.
func mustOffsets() yieldlab.OffsetDist {
	offs := make([]float64, 14)
	probs := make([]float64, 14)
	for i := range offs {
		offs[i] = float64(i) * 20
		probs[i] = 1
	}
	od, err := yieldlab.NewOffsetDist(offs, probs)
	if err != nil {
		log.Fatal(err)
	}
	return od
}
