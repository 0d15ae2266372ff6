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
// a change to served numbers, not an optimization, and bumps NumericsEpoch.
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

// mcGolden pins the estimates of mcGoldenSpecs under numerics epoch 1
// (query.NumericsEpoch): math/rand/v2 PCG streams, the tabulated pitch
// draw's stored slopes, and pilots counted inside the round cap.
var mcGolden = []mcGoldenCase{
	{"w103/fixed/seed1", 0x3efdd54e86171ea0, 0x3ec84f55a7cb385a, 1024},
	{"w103/fixed/seed2", 0x3efbda2b368e9220, 0x3ebf3c831aaa3a07, 1024},
	{"w103/fixed/seed3", 0x3f00870ba1568df0, 0x3ec64c5649c7c0c2, 1024},
	{"w103/plain/seed1", 0x3efd4aff6ad804ae, 0x3eb1f43bf168ef26, 4096},
	{"w103/plain/seed2", 0x3f00b671cf41b68a, 0x3eb8f8ec358d95a3, 4096},
	{"w103/plain/seed3", 0x3efce39f76c01c86, 0x3eb27e21b55804ad, 4096},
	{"w103/tilted/seed1", 0x3efedd7bfe429400, 0x3eacb9e1f58cf24a, 8192},
	{"w103/tilted/seed2", 0x3efe6355195438fe, 0x3eadb5d98020046b, 8192},
	{"w103/tilted/seed3", 0x3eff07ff694c78c2, 0x3eb4a0f75e73c6f9, 8192},
	{"w103/splitting/seed1", 0x3ed33ed7ce9cf656, 0x3eb078f3c9ba07cf, 94208},
	{"w103/splitting/seed2", 0x3ef27fb30e1a833c, 0x3ee2cc96840f32af, 86016},
	{"w103/splitting/seed3", 0x3f149fe3f1917440, 0x3f12d6b5853c202c, 77824},
	{"w155/fixed/seed1", 0x3e680d863b8dc000, 0x3e40a5d1d10a752c, 1024},
	{"w155/fixed/seed2", 0x3e65597552314001, 0x3e41db3ff3a83b3c, 1024},
	{"w155/fixed/seed3", 0x3e674362cceac000, 0x3e445e858c67ec2e, 1024},
	{"w155/plain/seed1", 0x3e61da22605a8001, 0x3e24a6bc19a18bbc, 4096},
	{"w155/plain/seed2", 0x3e6584dd4de83001, 0x3e2ce328e0a08f03, 4096},
	{"w155/plain/seed3", 0x3e6457b8f868d000, 0x3e302cf1be6b4e71, 4096},
	{"w155/tilted/seed1", 0x3e6692491d6c21bd, 0x3e24bc3e69675973, 8192},
	{"w155/tilted/seed2", 0x3e6535efb23b6fc9, 0x3e2a519841e8407b, 8192},
	{"w155/tilted/seed3", 0x3e6755dbc769da3d, 0x3e2b9d1dfebe530f, 8192},
	{"w155/splitting/seed1", 0x3e577a53eae5f4bc, 0x3e550a2a95099b48, 147456},
	{"w155/splitting/seed2", 0x3e3542d7acf2dcbe, 0x3e040a252080c750, 139264},
	{"w155/splitting/seed3", 0x3e60128d9928217b, 0x3e5aef11eba68164, 139264},
	{"w200/fixed/seed1", 0x3de001a946000001, 0x3dc11e7242627d9d, 1024},
	{"w200/fixed/seed2", 0x3dd67b3afa800000, 0x3dab261e825cadf2, 1024},
	{"w200/fixed/seed3", 0x3dd8fdf896800001, 0x3dc238eaf2fca237, 1024},
	{"w200/plain/seed1", 0x3dd72e2473e00001, 0x3d98819864a1bee4, 8192},
	{"w200/plain/seed2", 0x3de56a9d8aa80002, 0x3dbd78747b932e1a, 8192},
	{"w200/plain/seed3", 0x3de0f10ef6e80000, 0x3db1393cff8f62af, 8192},
	{"w200/tilted/seed1", 0x3de7603f6a9266f5, 0x3dc4d76ad53bde13, 8192},
	{"w200/tilted/seed2", 0x3de3103b86f4161c, 0x3da8441572944e0c, 8192},
	{"w200/tilted/seed3", 0x3de59e714bde7576, 0x3dbde8b1e0df0bce, 8192},
	{"w200/splitting/seed1", 0x3da448aba21c5815, 0x3da397195358718b, 229376},
	{"w200/splitting/seed2", 0x3d51b050d58c2fd4, 0x3d44bee51e4bcf0c, 233472},
	{"w200/splitting/seed3", 0x3da2b0c425bb9cda, 0x3d960230473813bd, 204800},
	{"literal-unsorted/fixed", 0x3e52e5141522ffff, 0x3e3a4242b50f2deb, 1024},
	{"literal-repeated/fixed", 0x3e5d236303267fff, 0x3e57c30c58784657, 1024},
	{"literal-unsorted/tilted", 0x3e4cb8dc959f78e6, 0x3e1bdcd4e3b312c6, 8192},
	{"literal-repeated/tilted", 0x3e45278961aaaf47, 0x3e064ad3b34b46da, 8192},
	{"literal-unsorted/splitting", 0x3e45951f3752d320, 0x3e455494038155f4, 167936},
	{"literal-repeated/splitting", 0x3e2d642d23e22638, 0x3e20adfcf2f05db0, 143360},
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
