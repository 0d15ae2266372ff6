// tech_scaling sweeps the upsizing penalty across technology nodes with and
// without the correlation co-optimization — the paper's Figs. 2.2b and 3.3
// side by side, and the argument for why CNT correlation matters more the
// further CMOS-style scaling proceeds.
//
//	go run ./examples/tech_scaling
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/cnfet/yieldlab"
)

func main() {
	runner := yieldlab.NewRunner(yieldlab.DefaultParams())

	before, err := runner.Run(context.Background(), "fig2.2b")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(before.Text())

	both, err := runner.Run(context.Background(), "fig3.3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(both.Text())

	fmt.Println("reading: transistor widths scale with the node while the inter-CNT")
	fmt.Println("pitch stays at 4 nm, so a fixed Wmin swallows ever more of the design;")
	fmt.Println("the 350× failure-budget relaxation halves the penalty at every node")
	fmt.Println("and nearly erases it at 45 nm.")
}
