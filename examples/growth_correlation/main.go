// growth_correlation simulates the two growth processes physically and
// measures the CNT count/type correlation between neighbouring CNFETs —
// the premise of the paper's Section 3.1 and its Fig. 3.1 — then writes the
// three panels as SVG files into ./fig3_1/.
//
//	go run ./examples/growth_correlation
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/cnfet/yieldlab"
)

func main() {
	runner := yieldlab.NewRunner(func() yieldlab.Params {
		p := yieldlab.DefaultParams()
		p.CorrelationRounds = 400
		return p
	}())
	res, err := runner.Run(context.Background(), "fig3.1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Text())

	dir := "fig3_1"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, svg := range res.SVGs {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}

	fmt.Println("\nthe panels show one growth realization each:")
	fmt.Println("  (a) dispersed sticks — the two devices share nothing;")
	fmt.Println("  (b) directional tracks, misaligned actives — partial sharing;")
	fmt.Println("  (c) directional tracks, aligned actives — identical CNTs.")
}
