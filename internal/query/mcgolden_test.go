package query

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// mcGoldenCase is one pinned unaligned row-yield evaluation: the exact bit
// patterns of its estimate. The round engine's fast paths (occupancy plan,
// cursor windows, tabulated pitch draws, in-place stream reseeding) must
// consume the random streams and evaluate the floating-point expressions
// exactly as the straightforward engine did, so any change to these bits is
// a change to served numbers, not an optimization.
type mcGoldenCase struct {
	name            string
	prfBits, seBits uint64
	rounds          int
}

// mcGoldenSpec is one named spec of the pinned set.
type mcGoldenSpec struct {
	name string
	spec Spec
}

// mcGoldenSpecs returns the pinned spec set: widths {103, 155, 200} × every
// estimator spelling × three seeds over the library offsets, plus literal
// offset distributions given out of order and with a repeated offset.
func mcGoldenSpecs() []mcGoldenSpec {
	// The fixed-budget spelling runs 1024 rounds; the adaptive ones stop at
	// a 10% relative error or 8192 rounds.
	named := func(name, method string, q Spec) mcGoldenSpec {
		q.Kind, q.Scenario, q.Rounds = KindRowYield, "unaligned", 1024
		if method == "" {
			return mcGoldenSpec{name + "fixed", q}
		}
		q.MCMethod, q.RelErrTarget, q.Rounds = method, 0.1, 1<<13
		return mcGoldenSpec{name + method, q}
	}
	var out []mcGoldenSpec
	for _, w := range []float64{103, 155, 200} {
		for _, method := range []string{"", "plain", "tilted", "splitting"} {
			for _, seed := range []uint64{1, 2, 3} {
				o := named(fmt.Sprintf("w%g/", w), method, Spec{WidthNM: w, Seed: seed})
				o.name += fmt.Sprintf("/seed%d", seed)
				out = append(out, o)
			}
		}
	}
	for _, method := range []string{"", "tilted", "splitting"} {
		out = append(out,
			named("literal-unsorted/", method, Spec{WidthNM: 155, Seed: 7,
				Offsets: []float64{190, 0, 380, 95}, OffsetProbs: []float64{0.25, 0.4, 0.2, 0.15}}),
			named("literal-repeated/", method, Spec{WidthNM: 155, Seed: 7,
				Offsets: []float64{60, 0, 60, 30}, OffsetProbs: []float64{0.3, 0.3, 0.2, 0.2}}))
	}
	return out
}

// mcGolden pins the estimates of mcGoldenSpecs, captured before the round
// engine's fast paths existed.
var mcGolden = []mcGoldenCase{
	{"w103/fixed/seed1", 0x3efd29b6b43152df, 0x3ec0c7f7e3f1c05c, 1024},
	{"w103/fixed/seed2", 0x3efdaf3dee0a9fff, 0x3ecb45b8f1bdcc18, 1024},
	{"w103/fixed/seed3", 0x3f028d91a0ec96b0, 0x3ed404f8c93ef54f, 1024},
	{"w103/plain/seed1", 0x3efed50ae3b1e2c8, 0x3eb5bad3f1369c11, 4096},
	{"w103/plain/seed2", 0x3f010044b608480c, 0x3ebe34898a2705c0, 4096},
	{"w103/plain/seed3", 0x3eff04aec90fd36f, 0x3eb743c33e8dbb90, 4096},
	{"w103/tilted/seed1", 0x3eeacc2e5dce5ea9, 0x3ee55d46c7d9cb68, 8194},
	{"w103/tilted/seed2", 0x3e8c0d7f42a37220, 0x3e8836a0a94dc927, 8194},
	{"w103/tilted/seed3", 0x3def59fc750df7cd, 0x3ddb2d09216be5c1, 8194},
	{"w103/splitting/seed1", 0x3ef4e4384207a000, 0x3eeb92144e00de5c, 81920},
	{"w103/splitting/seed2", 0x3f090ea609f44800, 0x3f05ba72e5d9832e, 81920},
	{"w103/splitting/seed3", 0x3f0e93d4f058fe88, 0x3f05df8ca6621640, 81920},
	{"w155/fixed/seed1", 0x3e6fc6bae9ddfffe, 0x3e510cbfea9db549, 1024},
	{"w155/fixed/seed2", 0x3e631d9db6874000, 0x3e3c00d9f7f4ef48, 1024},
	{"w155/fixed/seed3", 0x3e6723bbbc1d8001, 0x3e45f211a4d735e2, 1024},
	{"w155/plain/seed1", 0x3e67fa18ac06a800, 0x3e300ef2c2e34926, 8192},
	{"w155/plain/seed2", 0x3e67442568dbc000, 0x3e2a1b9b0dd5862c, 8192},
	{"w155/plain/seed3", 0x3e6307b0660d7ffe, 0x3e2aa26f8576b3c1, 4096},
	{"w155/tilted/seed1", 0x3e4efadbd296087f, 0x3e4e4978a7bdf4e8, 8194},
	{"w155/tilted/seed2", 0x3df19eacecd3a9e6, 0x3de97ae772839c6f, 8194},
	{"w155/tilted/seed3", 0x3c8a62e13e72b04d, 0x3c7c727508ec8711, 8194},
	{"w155/splitting/seed1", 0x3e3e1e23bb8547e5, 0x3e3102f9e4bd0204, 147456},
	{"w155/splitting/seed2", 0x3e6df37156c26142, 0x3e6c062811dd5865, 135168},
	{"w155/splitting/seed3", 0x3e457a24de25825a, 0x3e33260044cee506, 135168},
	{"w200/fixed/seed1", 0x3de489ff7abfffff, 0x3dd046e236f9a788, 1024},
	{"w200/fixed/seed2", 0x3de54b008affffff, 0x3dcf1275166921a3, 1024},
	{"w200/fixed/seed3", 0x3de2b9454d400000, 0x3dc3a4c5aee57469, 1024},
	{"w200/plain/seed1", 0x3deb28dba7d80000, 0x3dccd4894eb2bb8f, 8192},
	{"w200/plain/seed2", 0x3ddfd91043bffffd, 0x3db457095dfb86fa, 8192},
	{"w200/plain/seed3", 0x3de36e0113000000, 0x3dc1276bc1651a59, 8192},
	{"w200/tilted/seed1", 0x3d7249cdea7f3121, 0x3d6782dc7828526a, 8194},
	{"w200/tilted/seed2", 0x3d403d2c9c9f6f00, 0x3d0aa666637e41ce, 8194},
	{"w200/tilted/seed3", 0x3dd81abfda439716, 0x3dd77ce9a5c52441, 8194},
	{"w200/splitting/seed1", 0x3db7ddfc34e11eca, 0x3da683928b595f98, 192512},
	{"w200/splitting/seed2", 0x3d93338970dcf6c5, 0x3d8b572f071dfcd7, 212992},
	{"w200/splitting/seed3", 0x3dc0cdc354922ab1, 0x3dbc0c382ab81ae5, 196608},
	{"literal-unsorted/fixed", 0x3e51a65f73a58000, 0x3e39d37cd5ebb5bd, 1024},
	{"literal-repeated/fixed", 0x3e4259a9e32f0001, 0x3e20d41a5b497034, 1024},
	{"literal-unsorted/tilted", 0x3de2bd33dc4e5218, 0x3de2bd27a90140a5, 8194},
	{"literal-repeated/tilted", 0x3e1e2a03dd61c702, 0x3e1580221fc52028, 8194},
	{"literal-unsorted/splitting", 0x3e43b9b7972c5d69, 0x3e433d4c349da448, 151552},
	{"literal-repeated/splitting", 0x3e1dfeae9a391493, 0x3e0dd81c4e8b88cb, 143360},
}

// TestRowYieldMCBitIdentity evaluates every pinned spec and compares the
// IEEE-754 bits of PRF and StdErr, and the round count, with the values
// pinned in mcGolden.
func TestRowYieldMCBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates ~40 Monte Carlo specs")
	}
	s := newTestSession(t, Options{})
	pinned := make(map[string]mcGoldenCase, len(mcGolden))
	for _, c := range mcGolden {
		pinned[c.name] = c
	}
	specs := mcGoldenSpecs()
	if len(pinned) != len(specs) {
		t.Errorf("mcGolden pins %d cases, the spec set has %d", len(pinned), len(specs))
	}
	for _, tc := range specs {
		res, err := s.Evaluate(context.Background(), tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ry := res.RowYield
		got := mcGoldenCase{tc.name, math.Float64bits(ry.PRF), math.Float64bits(ry.StdErr), ry.Rounds}
		if want, ok := pinned[tc.name]; !ok || got != want {
			t.Errorf("%s: got PRF=%g StdErr=%g Rounds=%d; pinned %+v\n\t{%q, %#x, %#x, %d},",
				tc.name, ry.PRF, ry.StdErr, ry.Rounds, want, got.name, got.prfBits, got.seBits, got.rounds)
		}
	}
}
