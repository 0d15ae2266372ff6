package rowyield_test

import (
	"fmt"
	"testing"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/rowyield"
)

// The served plans: the library-weighted row models at 103, 155 and 200 nm,
// every drawing step and every n up to the row's 360 FETs, must answer the
// walk's k from their cumulative tables.
func TestLibraryOccupancyTablesMatchWalk(t *testing.T) {
	r := experiments.New(experiments.DefaultParams())
	for _, w := range []float64{103, 155, 200} {
		t.Run(fmt.Sprintf("w%g", w), func(t *testing.T) {
			m, err := r.RowModelAtPitch(w, device.WorstCorner(), nil)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := rowyield.CheckOccupancyTables(m)
			if err != nil {
				t.Fatal(err)
			}
			if tables == 0 {
				t.Fatal("no table was checked")
			}
		})
	}
}
