// Package rowyield is a determinism fixture: the //yield:compute
// directive below marks it as a compute package, so nondeterminism
// sources must be flagged.
//
//yield:compute
package rowyield

import (
	"encoding/json"
	"fmt"
	"io"
	randv1 "math/rand" // want "math/rand .v1. in a compute package"
	"math/rand/v2"
	"os"
	"sort"
	"time"
)

// globalRand draws from the shared math/rand state.
func globalRand() float64 {
	seedless := rand.Float64() // want "global rand.Float64 draws from shared process state"
	n := rand.IntN(10)         // want "global rand.IntN"
	return seedless + float64(n)
}

// explicitRand threads a generator explicitly: the sanctioned pattern.
func explicitRand(r *rand.Rand) float64 {
	src := rand.New(rand.NewPCG(1, 2)) // constructors are fine
	return r.Float64() + src.Float64()
}

// v1Stream builds a v1 generator: no global state, but not the stream the
// numerics epoch pins, so its import is flagged.
func v1Stream() float64 {
	return randv1.New(randv1.NewSource(1)).Float64()
}

// impure reads ambient process state.
func impure() string {
	t := time.Now()            // want "time.Now in a compute package"
	d := time.Since(t)         // want "time.Since in a compute package"
	env := os.Getenv("CORNER") // want "os.Getenv in a compute package"
	return env + d.String()
}

// mapFolds exercises the order-sensitive map-iteration checks.
func mapFolds(m map[string]float64, w io.Writer) ([]string, float64) {
	var names []string
	for k := range m {
		names = append(names, k) // want "appending to names in map-iteration order"
	}

	var sorted []string
	for k := range m {
		sorted = append(sorted, k) // append-then-sort is the sanctioned idiom
	}
	sort.Strings(sorted)

	total := 0.0
	for _, v := range m {
		total += v // want "float accumulation in map-iteration order"
	}

	count := 0
	for range m {
		count++ // integer folds are order-independent
	}

	for k, v := range m {
		fmt.Fprintf(w, "%s=%g\n", k, v) // want "writing output in map-iteration order"
	}

	enc := json.NewEncoder(w)
	for k := range m {
		_ = enc.Encode(k) // want "encoding JSON in map-iteration order"
	}

	for _, v := range m {
		local := 0.0
		local += v // loop-local accumulator resets every iteration
		_ = local
	}

	return names, total + float64(count)
}

// fanOut starts its own goroutine instead of an internal/ordered pool.
func fanOut(xs []float64) float64 {
	done := make(chan float64)
	go func() { // want "go statement in a compute package; fan out through internal/ordered"
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		done <- sum
	}()
	return <-done
}
