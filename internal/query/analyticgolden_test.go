package query

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/cnfet/yieldlab/internal/experiments"
)

// analyticGoldenCase is one pinned analytic evaluation at the paper-default
// parameters: the spec's fingerprint and the exact bit patterns of its
// served numbers — (PF, PFCNT, 0) for a pf spec, (WminNM, DevicePF,
// MminShare) for a wmin spec — or the error it fails with. Memoizing pF
// per grid cell, canonicalizing once per spec and freezing the law and node
// tables are pure reorganizations of the same arithmetic, so any change to
// these values is a change to served numbers, not an optimization.
type analyticGoldenCase struct {
	name    string
	fp      string
	a, b, c uint64
	err     string
}

// analyticGoldenSpecs returns the pinned spec set: pf at three grid cells
// and the widths exactly between each and its successor, for every corner
// and node; wmin for every corner × node × yield × relax factor; and one
// explicit pm/prs corner and one pitch-law override of each kind.
func analyticGoldenSpecs() []mcGoldenSpec {
	step := experiments.DefaultParams().GridStepNM
	corners := []string{"worst", "mid", "best"}
	nodes := []string{"45nm", "32nm", "22nm", "16nm"}
	var out []mcGoldenSpec
	for _, corner := range corners {
		for _, node := range nodes {
			for _, cell := range []float64{2060, 3100, 4000} {
				for _, at := range []float64{cell, cell + 0.5} {
					w := at * step
					out = append(out, mcGoldenSpec{fmt.Sprintf("pf/%s/%s/w%g", corner, node, w),
						Spec{Kind: KindPF, Corner: corner, Node: node, WidthNM: w}})
				}
			}
		}
	}
	for _, corner := range corners {
		for _, node := range nodes {
			for _, y := range []float64{0.5, 0.9, 0.99} {
				for _, relax := range []float64{1, 10, 360} {
					out = append(out, mcGoldenSpec{fmt.Sprintf("wmin/%s/%s/y%g/r%g", corner, node, y, relax),
						Spec{Kind: KindWmin, Corner: corner, Node: node, DesiredYield: y, RelaxFactor: relax}})
				}
			}
		}
	}
	pm, prs := 0.2, 0.1
	out = append(out,
		mcGoldenSpec{"pf/pm0.2-prs0.1/w155", Spec{Kind: KindPF, PM: &pm, PRS: &prs, WidthNM: 155}},
		mcGoldenSpec{"wmin/pm0.2-prs0.1", Spec{Kind: KindWmin, PM: &pm, PRS: &prs}},
		mcGoldenSpec{"pf/pitch3.5/w155", Spec{Kind: KindPF, PitchMeanNM: 3.5, WidthNM: 155}},
		mcGoldenSpec{"wmin/pitch3.5", Spec{Kind: KindWmin, PitchMeanNM: 3.5}})
	return out
}

// analyticGoldenOutcome evaluates one spec into its pinned form.
func analyticGoldenOutcome(s *Session, tc mcGoldenSpec) analyticGoldenCase {
	got := analyticGoldenCase{name: tc.name}
	_, got.fp, _ = tc.spec.Canonical()
	res, err := s.Evaluate(context.Background(), tc.spec)
	switch {
	case err != nil:
		got.err = err.Error()
	case res.PF != nil:
		got.a, got.b = math.Float64bits(res.PF.PF), math.Float64bits(res.PF.PFCNT)
	case res.Wmin != nil:
		w := res.Wmin
		got.a, got.b, got.c = math.Float64bits(w.WminNM), math.Float64bits(w.DevicePF), math.Float64bits(w.MminShare)
	}
	return got
}

// TestAnalyticBitIdentity evaluates every pinned spec on one warm session
// — the serving configuration, where later specs reuse the swept tables
// and per-cell results earlier ones filled — and compares fingerprints and
// IEEE-754 bits with the values pinned in analyticGolden.
func TestAnalyticBitIdentity(t *testing.T) {
	s := newTestSession(t, Options{Params: experiments.DefaultParams()})
	pinned := make(map[string]analyticGoldenCase, len(analyticGolden))
	for _, c := range analyticGolden {
		pinned[c.name] = c
	}
	specs := analyticGoldenSpecs()
	if len(pinned) != len(specs) {
		t.Errorf("analyticGolden pins %d cases, the spec set has %d", len(pinned), len(specs))
	}
	for _, tc := range specs {
		got := analyticGoldenOutcome(s, tc)
		if want, ok := pinned[tc.name]; !ok || got != want {
			t.Errorf("%s: got %+v; pinned %+v\n\t{%q, %q, %#x, %#x, %#x, %q},",
				tc.name, got, want, got.name, got.fp, got.a, got.b, got.c, got.err)
		}
	}
}

// analyticGolden pins the outcomes of analyticGoldenSpecs, captured before
// the per-cell pF memo, single canonicalization and frozen tables existed.
var analyticGolden = []analyticGoldenCase{
	{"pf/worst/45nm/w103", "qs1-ff77f3fb174ab28ac924cd48", 0x3ec2dadf74d60826, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/45nm/w103.025", "qs1-e3dd088af47671cc33ec696f", 0x3ec2bc6993968915, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/45nm/w155", "qs1-3acc3599c7f25d47813f4e0e", 0x3e2ab1a40aad7ec5, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/45nm/w155.025", "qs1-9b6b882291034d5f2306ae08", 0x3e2a868449651c5a, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/45nm/w200", "qs1-7b50e15398f993c116dcc465", 0x3da6f98c7ef70d51, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/45nm/w200.025", "qs1-cbfe0c0dfa25fc81dd73f2f7", 0x3da6d484e3784318, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/32nm/w103", "qs1-2597aaf6ce4e513534de5359", 0x3f1979ea55b41a82, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/32nm/w103.025", "qs1-3330c8607f2a200deded0f26", 0x3f1979ea55b41a82, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/32nm/w155", "qs1-c2f2f189fb5ecebc93e1f9ab", 0x3eae4f43167993b9, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/32nm/w155.025", "qs1-a3ad14e50fa6104a39a0c53d", 0x3eae1e4be4933d1a, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/32nm/w200", "qs1-b212efdca1330650071dcd05", 0x3e50df14ada45cfb, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/32nm/w200.025", "qs1-bbff33e4be7a54e8b7682390", 0x3e50c3d327883b87, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/22nm/w103", "qs1-ca94d312f8b4b4ee21fff849", 0x3f5cebcba9739baf, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/22nm/w103.025", "qs1-7c43e6f296e527fd0a5e2487", 0x3f5cebcba9739baf, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/22nm/w155", "qs1-aaed9e176575f2f01c18e2b0", 0x3f12725aedc08dc7, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/22nm/w155.025", "qs1-266f3a6d5526aac90cdcf278", 0x3f12725aedc08dc7, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/22nm/w200", "qs1-74606bb69da9618c993c2cbc", 0x3ed235f315ba1cfa, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/22nm/w200.025", "qs1-e87aaf4ac3c77a9c4a927e8c", 0x3ed235f315ba1cfa, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/16nm/w103", "qs1-231e8937e639bd99d26097db", 0x3f849d920984a171, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/16nm/w103.025", "qs1-471baad3fc6b865803c0fd30", 0x3f847c440aea169a, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/16nm/w155", "qs1-0d6a6b4de040fdb03c44bf59", 0x3f4fb32797293015, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/16nm/w155.025", "qs1-e8e0de91ba68af88d09d3b81", 0x3f4fb32797293015, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/16nm/w200", "qs1-7bf0a2a3c605f98cea2cc736", 0x3f20b936c1ed96f2, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/worst/16nm/w200.025", "qs1-6f2331aa0181f66cf5e1952e", 0x3f20b936c1ed96f2, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"pf/mid/45nm/w103", "qs1-4bc6558adc2282434ef31479", 0x3e26b637e7f9ec44, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/45nm/w103.025", "qs1-1231bb603b8d0b2b6bfebf92", 0x3e267e6e8e45fbd4, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/45nm/w155", "qs1-36e68d8fca88615098747e39", 0x3d43c8290adf9651, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/45nm/w155.025", "qs1-2fcfc3602ceade332badb6f9", 0x3d439fc429e48dd4, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/45nm/w200", "qs1-69f87c0bc71f05a77816c453", 0x3d1ab7a6d300c5f7, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/45nm/w200.025", "qs1-acbdbca79435bedb32344b1d", 0x3d1ab798b9fb9bfd, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/32nm/w103", "qs1-2a481d1c9ac397db8b527f30", 0x3eab806d1a2c0a30, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/32nm/w103.025", "qs1-256cfaaa097805499b541aa0", 0x3eab806d1a2c0a30, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/32nm/w155", "qs1-0a64d881454b634710fd1cd6", 0x3e06aa7c6067368f, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/32nm/w155.025", "qs1-364add066a8a72029b0eab23", 0x3e0672d03bf7dec2, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/32nm/w200", "qs1-1af5549344faae46b5091310", 0x3d78acd0b29fe739, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/32nm/w200.025", "qs1-3c55da9570b6d6fbeb2a4916", 0x3d78713b0f25bb94, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/22nm/w103", "qs1-d80f46cb0fc915d693b37530", 0x3f11c6f129267a71, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/22nm/w103.025", "qs1-a5a85b92e9e87fa561f6a9cc", 0x3f11c6f129267a71, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/22nm/w155", "qs1-2cae91da235a681ba1228a4a", 0x3ea0d1ce90dd69d8, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/22nm/w155.025", "qs1-871a34b7fa9afeac07181045", 0x3ea0d1ce90dd69d8, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/22nm/w200", "qs1-7e0768af3b1bc9587f84ff95", 0x3e3ef3970d1bcb9b, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/22nm/w200.025", "qs1-eb12dc0865a82c9a448413e6", 0x3e3ef3970d1bcb9b, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/16nm/w103", "qs1-4714f4f55a9732c23c7e27eb", 0x3f4f7eb428b8174d, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/16nm/w103.025", "qs1-8d69a0083a0c335d21bff8cc", 0x3f4f3157a8ea63db, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/16nm/w155", "qs1-92211c2091a90dce586c6208", 0x3efc7436b9bcb780, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/16nm/w155.025", "qs1-1c74bee77e757e8543e42627", 0x3efc7436b9bcb780, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/16nm/w200", "qs1-70f99fd0ce54d576c91018dd", 0x3eb4d0a34216509a, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/mid/16nm/w200.025", "qs1-8704de851893efb5c21e0c33", 0x3eb4d0a34216509a, 0x3fd51eb851eb851f, 0x0, ""},
	{"pf/best/45nm/w103", "qs1-2015f5a0c8e471300232c20b", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/45nm/w103.025", "qs1-85b1ba9d82eb377cae39e1bd", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/45nm/w155", "qs1-d2a6ebd636288f9cd7ff23a3", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/45nm/w155.025", "qs1-8eca3ffc5fbd9cf2a43e890d", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/45nm/w200", "qs1-5530f9f4dd186da645635cd9", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/45nm/w200.025", "qs1-0e25521d90dbb308227a5f46", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/32nm/w103", "qs1-380a4d96ed18a3affab66f18", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/32nm/w103.025", "qs1-64ade7066e14ee27781babe0", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/32nm/w155", "qs1-d589a52f2258c07aac272436", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/32nm/w155.025", "qs1-4510478c8c186f8d2097af17", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/32nm/w200", "qs1-be96425f39bcb9277ed59b0c", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/32nm/w200.025", "qs1-779187030d9e43038c6a173e", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/22nm/w103", "qs1-7a0083bb272e9acf92280e13", 0x3d9ccf2000000000, 0x0, 0x0, ""},
	{"pf/best/22nm/w103.025", "qs1-706f4e3ac000fa4aea9ce5d0", 0x3d9ccf2000000000, 0x0, 0x0, ""},
	{"pf/best/22nm/w155", "qs1-112b19c6e7a66876a20a175d", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/22nm/w155.025", "qs1-e6feae80b62bf3ec2344ac71", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/22nm/w200", "qs1-b1be78c777c19b8b647f6c54", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/22nm/w200.025", "qs1-3f5f46e1641c16bc7ec5f169", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/16nm/w103", "qs1-af847b8f40ddfbdfa7544568", 0x3e7f55638b000000, 0x0, 0x0, ""},
	{"pf/best/16nm/w103.025", "qs1-ece56238bd2ba0531180f648", 0x3e7e5adec0800000, 0x0, 0x0, ""},
	{"pf/best/16nm/w155", "qs1-0ff80f906bbc1d60f7836f7d", 0x3d43080000000000, 0x0, 0x0, ""},
	{"pf/best/16nm/w155.025", "qs1-81e3e8a3582de043ec2c206c", 0x3d43080000000000, 0x0, 0x0, ""},
	{"pf/best/16nm/w200", "qs1-f2b2dfa1d2120e4abdd729ff", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"pf/best/16nm/w200.025", "qs1-5b1d17c512ec72385c950525", 0x3d1a600000000000, 0x0, 0x0, ""},
	{"wmin/worst/45nm/y0.5/r1", "qs1-3a4f7c69adf173aee7820da8", 0x40617d9b3fcccccc, 0x3e566ea3e6daebee, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/45nm/y0.5/r10", "qs1-5abbee5d1dfc6589a139889b", 0x405e6e6149333334, 0x3e8c448c71c5b878, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/45nm/y0.5/r360", "qs1-fae9d4bfcf23db83fdcac2c4", 0x405584c650666666, 0x3ef42772becdf86b, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/worst/45nm/y0.9/r1", "qs1-fa2adbc8d205e7f033644500", 0x406358d038333333, 0x3e2b60e4a09b5add, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/45nm/y0.9/r10", "qs1-090f4c8fe37d831a69d65634", 0x4061140204ffffff, 0x3e610884a7a9e2d0, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/45nm/y0.9/r360", "qs1-214afa07578e45ae02987af0", 0x405b1196e1333334, 0x3eb36617b34a2b3c, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/45nm/y0.99/r1", "qs1-81d8d3c19140862e31b1bcd3", 0x4065aa662d000000, 0x3df50d110504bbb5, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/45nm/y0.99/r10", "qs1-1b0b36ba6fed1f3ce8331eef", 0x40636597f9cccccd, 0x3e2a311556fbd65b, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/45nm/y0.99/r360", "qs1-b11e4b95051269769044704e", 0x405fb7fb9accccce, 0x3e7d7422bdc5901f, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/32nm/y0.5/r1", "qs1-7f3807e290aad6eb85125e8b", 0x4061dc0241666665, 0x3e4ee185c185010a, 0x3fdeb851eb851eb8, ""},
	{"wmin/worst/32nm/y0.5/r10", "qs1-38d797741e9aa594cb3c5e9a", 0x405e6e6149333334, 0x3e8c448c71c5b878, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/32nm/y0.5/r360", "qs1-005a13207653c5809edbcf0d", 0x40575b2cf0666668, 0x3edfc9da157b8fe1, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/32nm/y0.9/r1", "qs1-5471923a379956a5d47dd66c", 0x4063f0cebfccccce, 0x3e1e025baa2d6c0f, 0x3fe3333333333333, ""},
	{"wmin/worst/32nm/y0.9/r10", "qs1-40bf571486bf4245c8cafb6b", 0x4061726906999999, 0x3e5772d7d4cf129b, 0x3fdeb851eb851eb8, ""},
	{"wmin/worst/32nm/y0.9/r360", "qs1-0794aa2a462fb6d46cfaf073", 0x405b1196e1333334, 0x3eb36617b34a2b3c, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/32nm/y0.99/r1", "qs1-f3a66cdf7add82706fd97e60", 0x40664264b4999999, 0x3de7133c8162b094, 0x3fe3333333333333, ""},
	{"wmin/worst/32nm/y0.99/r10", "qs1-3eab58f9b26a951b555ddb67", 0x4063fc00f9000000, 0x3e1cb55bb3d15840, 0x3fe3333333333333, ""},
	{"wmin/worst/32nm/y0.99/r360", "qs1-b00f70db802d67bb0062907a", 0x405fb7fb9accccce, 0x3e7d7422bdc5901f, 0x3fd51eb851eb851f, ""},
	{"wmin/worst/22nm/y0.5/r1", "qs1-bf35a949f6e1ff5209990aef", 0x40623f30bbcccccd, 0x3e44fd0d1d5f79c7, 0x3fe6b851eb851eb8, ""},
	{"wmin/worst/22nm/y0.5/r10", "qs1-e07d65000a7b7f1b57efec0f", 0x405f9b334799999a, 0x3e7efbd6d9743c81, 0x3fe3333333333333, ""},
	{"wmin/worst/22nm/y0.5/r360", "qs1-ac98b4588215ee20139f878f", 0x405817faf399999a, 0x3ed5e16cccfad338, 0x3fdeb851eb851eb8, ""},
	{"wmin/worst/22nm/y0.9/r1", "qs1-b4362b536428be4f8ba6f201", 0x40643c033f666666, 0x3e1649497db19bbe, 0x3fe9eb851eb851ec, ""},
	{"wmin/worst/22nm/y0.9/r10", "qs1-178f02b632b9ec444b1c5cc8", 0x4061d59780ffffff, 0x3e4fdfc203a91ffe, 0x3fe6b851eb851eb8, ""},
	{"wmin/worst/22nm/y0.9/r360", "qs1-56ee2c5c5cd3c3e785c20058", 0x405c4193f0666666, 0x3ea5433c86b0a323, 0x3fe3333333333333, ""},
	{"wmin/worst/22nm/y0.99/r1", "qs1-ad3d2ec22baab779b60c1925", 0x4066a59a0e999999, 0x3ddef954bbad7c2b, 0x3fec7ae147ae147b, ""},
	{"wmin/worst/22nm/y0.99/r10", "qs1-0a04d3c39c53c0d748033cb8", 0x406448cb00ffffff, 0x3e1551fc93b8163a, 0x3fe9eb851eb851ec, ""},
	{"wmin/worst/22nm/y0.99/r360", "qs1-26dd273eca1f8201dc95befc", 0x40609d9a29000000, 0x3e6b36184869095f, 0x3fe6b851eb851eb8, ""},
	{"wmin/worst/16nm/y0.5/r1", "qs1-1746441e0ff4220ba0b917a9", 0x406288cfb3000000, 0x3e3f2c89f0653912, 0x3fee666666666666, ""},
	{"wmin/worst/16nm/y0.5/r10", "qs1-95f6cc730102523aede88938", 0x4060326486333334, 0x3e74ece9f1a984dd, 0x3fec7ae147ae147b, ""},
	{"wmin/worst/16nm/y0.5/r360", "qs1-fa0e8d3ed50bca45f64b6acb", 0x4058de65a799999a, 0x3ecd8e0cedb7c5c9, 0x3fe6b851eb851eb8, ""},
	{"wmin/worst/16nm/y0.9/r1", "qs1-6cec6db679db083251e77158", 0x406470cc6cffffff, 0x3e123314f6665db9, 0x3ff0000000000000, ""},
	{"wmin/worst/16nm/y0.9/r10", "qs1-bb23744d3b5e0304a196d3ed", 0x40621f3678333333, 0x3e47abcd205e28a4, 0x3fee666666666666, ""},
	{"wmin/worst/16nm/y0.9/r360", "qs1-e5bf9ec41899722dd12a0116", 0x405cd7fcef99999a, 0x3e9f94c6ff9219b8, 0x3fe9eb851eb851ec, ""},
	{"wmin/worst/16nm/y0.99/r1", "qs1-1adcbb66f830b308850b2842", 0x4066c3fec9cccccd, 0x3ddba38a9bcff725, 0x3ff0000000000000, ""},
	{"wmin/worst/16nm/y0.99/r10", "qs1-96b79ef278285e8d0c4e95fa", 0x40647d9b0e333333, 0x3e11310e30410789, 0x3ff0000000000000, ""},
	{"wmin/worst/16nm/y0.99/r360", "qs1-ee2b9064267515278e780475", 0x4060d59c2699999a, 0x3e65cda5cd9cbb8c, 0x3fec7ae147ae147b, ""},
	{"wmin/mid/45nm/y0.5/r1", "qs1-cd407788c0d2bcd540f5cf71", 0x4055db2d09333334, 0x3e6cbdf3ee87ba5f, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/45nm/y0.5/r10", "qs1-124ad274959b3f12c18e132a", 0x4052de660acccccc, 0x3ea1fe6e5220ac1e, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/45nm/y0.5/r360", "qs1-ec0bf4fdfb12c4fc8b16f26f", 0x404c7002a2666666, 0x3ef41c150e21d7e4, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/45nm/y0.9/r1", "qs1-49502daf88acab9ea2c4b2f5", 0x40584b3578666666, 0x3e415fb8b5f899c6, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/45nm/y0.9/r10", "qs1-14d61b661c501dd309c8c85f", 0x40554e60bacccccc, 0x3e75f6e99e8b32d6, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/45nm/y0.9/r360", "qs1-c8152f3df04cfc0ad20766b1", 0x4050ab34d1333334, 0x3ec84fca6bc1263e, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/45nm/y0.99/r1", "qs1-90361680aa9cad1a99797aac", 0x405c8e6bb799999a, 0x3df4c301a81c8f7a, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/45nm/y0.99/r10", "qs1-6306739e6432f3e6644d0e1e", 0x40585b360a000000, 0x3e408e665c3a8218, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/45nm/y0.99/r360", "qs1-e53945eba1812ac666ac01bd", 0x4053b7fc61333334, 0x3e92aea6aecaac30, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/32nm/y0.5/r1", "qs1-3bfb8c1dfd23337b04cab245", 0x4057119bb8666666, 0x3e5658ac12db3f61, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/32nm/y0.5/r10", "qs1-b6b3a8c77140ccc034b3b4ef", 0x405414c6faccccce, 0x3e8c4037bffb5f47, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/32nm/y0.5/r360", "qs1-e879dc364193fa4dffc3e74e", 0x404c7002a2666666, 0x3ef41c150e21d7e4, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/32nm/y0.9/r1", "qs1-9366313fe58448ae8cdaea45", 0x4059819668666666, 0x3e2b8ab8bac6aabc, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/32nm/y0.9/r10", "qs1-31385aeb3f19ea05b99e42ba", 0x405684cf6a000002, 0x3e6113b59c0a5e4d, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/32nm/y0.9/r360", "qs1-5fd6103ea3594ac3176cf869", 0x4050ab34d1333334, 0x3ec84fca6bc1263e, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/mid/32nm/y0.99/r1", "qs1-d26268f0d3ab2c5efb4b9460", 0x405c8e6bb799999a, 0x3df4c301a81c8f7a, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/32nm/y0.99/r10", "qs1-fadef7e746e3c64ceb163fd5", 0x40599196fa000000, 0x3e2a3ee5b05e24b3, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/32nm/y0.99/r360", "qs1-c54c6b00ff1965f2f6fcad7f", 0x4054eb3240666666, 0x3e7d9da23ec14928, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/22nm/y0.5/r1", "qs1-3de09c5949723fde0b46e8dd", 0x40578b2ea5333332, 0x3e4f48881475cea9, 0x3fdeb851eb851eb8, ""},
	{"wmin/mid/22nm/y0.5/r10", "qs1-925993d4da723f7e3a80ab5b", 0x405414c6faccccce, 0x3e8c4037bffb5f47, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/22nm/y0.5/r360", "qs1-0e2e81345c6e6ab084853c4a", 0x404edcc482666666, 0x3edfe0ed73132237, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/22nm/y0.9/r1", "qs1-30700c84ad3059ac3bf845ed", 0x4059fe6225333332, 0x3e22e903a38ab8c4, 0x3fdeb851eb851eb8, ""},
	{"wmin/mid/22nm/y0.9/r10", "qs1-60813c783150916259210680", 0x4057019b26cccccc, 0x3e57733306d86df6, 0x3fdeb851eb851eb8, ""},
	{"wmin/mid/22nm/y0.9/r360", "qs1-8f0c3f1ed3ef8a6c03f30334", 0x4051de6ab0666666, 0x3eb34517068987fd, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/22nm/y0.99/r1", "qs1-eea737e75d4a7920a616ee46", 0x405d54c8ac666666, 0x3de70ffbfa2c4f8a, 0x3fe3333333333333, ""},
	{"wmin/mid/22nm/y0.99/r10", "qs1-cc1f2298f768abab40d181b8", 0x405a0e62b6cccccc, 0x3e22052f5520964b, 0x3fdeb851eb851eb8, ""},
	{"wmin/mid/22nm/y0.99/r360", "qs1-466df3500fe161417824e592", 0x4054eb3240666666, 0x3e7d9da23ec14928, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/16nm/y0.5/r1", "qs1-530e5e2f56bb01f6c417575e", 0x40580e6c02000000, 0x3e44ddde2b72b74e, 0x3fe6b851eb851eb8, ""},
	{"wmin/mid/16nm/y0.5/r10", "qs1-98a0d057c99664352218c1c3", 0x4054db31aecccccc, 0x3e7f141195a45391, 0x3fe3333333333333, ""},
	{"wmin/mid/16nm/y0.5/r360", "qs1-58f5adc7392d3ce8ad725364", 0x404edcc482666666, 0x3edfe0ed73132237, 0x3fd51eb851eb851f, ""},
	{"wmin/mid/16nm/y0.9/r1", "qs1-800200906816d79c4e4b27d1", 0x405a7e66b2000000, 0x3e1978b8b29fa508, 0x3fe6b851eb851eb8, ""},
	{"wmin/mid/16nm/y0.9/r10", "qs1-21693c939c796976af3150cf", 0x405784cac4666666, 0x3e4fe47454c9370e, 0x3fe6b851eb851eb8, ""},
	{"wmin/mid/16nm/y0.9/r360", "qs1-5adba7c93f8dc3886dcc88cf", 0x40525b366d333332, 0x3eaa7614ab6b0e39, 0x3fdeb851eb851eb8, ""},
	{"wmin/mid/16nm/y0.99/r1", "qs1-6c0a7c272c8dc3a5c8f2d6a4", 0x405db804e6000002, 0x3de0f0e496930f57, 0x3fe9eb851eb851ec, ""},
	{"wmin/mid/16nm/y0.99/r10", "qs1-d9a41f7972e0161f91c91039", 0x405a8e674399999a, 0x3e1845d7c4332fd9, 0x3fe6b851eb851eb8, ""},
	{"wmin/mid/16nm/y0.99/r360", "qs1-074da93d701dbc46545f1972", 0x4055b19cf4666668, 0x3e70223734b9b48b, 0x3fe3333333333333, ""},
	{"wmin/best/45nm/y0.5/r1", "qs1-fa9c419e6bc34533ce9b834f", 0x4042e98d0a666668, 0x3e6d09a4d9000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.5/r10", "qs1-3869465221efa8d615617f2b", 0x4041165f3a666667, 0x3ea1eaa4a8900000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.5/r360", "qs1-1695dd22dd4b07a769426711", 0x403be0104e666666, 0x3ef402f106e58000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.9/r1", "qs1-b206339d7e8891ae699a0143", 0x404456614f333332, 0x3e4183fe1c000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.9/r10", "qs1-9e9de10d9dd591328f207f86", 0x4042966ce0cccccd, 0x3e755f42b2800000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.9/r360", "qs1-fdadf8776d69720fb4fd4a45", 0x403f4669a8000000, 0x3ec8243c02200000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.99/r1", "qs1-4e89cdc0e4ef14a1061e31a2", 0x40460337da666666, 0x3e0a05dc40000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.99/r10", "qs1-e325c4c02388c9d64dab0427", 0x40445cd2ef333333, 0x3e405d0d0c000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/45nm/y0.99/r360", "qs1-b443b590bd662af1e6c0ce88", 0x40419cd567333333, 0x3e92419c9b200000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.5/r1", "qs1-c7ef7a990cd6944a7e710ee1", 0x4042e98d0a666668, 0x3e6d09a4d9000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.5/r10", "qs1-47cef04f0cd67da62609de7f", 0x4041165f3a666667, 0x3ea1eaa4a8900000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.5/r360", "qs1-8527a4929dbc529a50f22ef6", 0x403be0104e666666, 0x3ef402f106e58000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.9/r1", "qs1-4c14d4915f3d04b637c7407e", 0x404456614f333332, 0x3e4183fe1c000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.9/r10", "qs1-f3e293d773537619158ef74c", 0x4042966ce0cccccd, 0x3e755f42b2800000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.9/r360", "qs1-2b3d1762ee78da0a8d7adc26", 0x403f4669a8000000, 0x3ec8243c02200000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.99/r1", "qs1-fec641dcaf9452e164ec4ba8", 0x40460337da666666, 0x3e0a05dc40000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.99/r10", "qs1-7305338951967d41c111f120", 0x40445cd2ef333333, 0x3e405d0d0c000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/32nm/y0.99/r360", "qs1-457da6f8172923641ad4947e", 0x40419cd567333333, 0x3e92419c9b200000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.5/r1", "qs1-7815226958821c6546b23bd1", 0x4042e98d0a666668, 0x3e6d09a4d9000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.5/r10", "qs1-081fb6ce0674b49ac89d8192", 0x4041165f3a666667, 0x3ea1eaa4a8900000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.5/r360", "qs1-2835ac0aaba129762ae703ea", 0x403be0104e666666, 0x3ef402f106e58000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.9/r1", "qs1-161b6843765ee034002deb03", 0x404456614f333332, 0x3e4183fe1c000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.9/r10", "qs1-8f4b10b316bacf06d1a8bb4b", 0x4042966ce0cccccd, 0x3e755f42b2800000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.9/r360", "qs1-fc2eb586e4ca7003713827d4", 0x403f4669a8000000, 0x3ec8243c02200000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.99/r1", "qs1-991f49dd0402be543f711498", 0x40460337da666666, 0x3e0a05dc40000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.99/r10", "qs1-41323b03f2d8af339b51c80e", 0x40445cd2ef333333, 0x3e405d0d0c000000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/22nm/y0.99/r360", "qs1-9d0e110c18771a53ce2e504b", 0x40419cd567333333, 0x3e92419c9b200000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/16nm/y0.5/r1", "qs1-313528d60ae150739f68f8f7", 0x40439ccc1c000000, 0x3e57317324000000, 0x3fd51eb851eb851f, ""},
	{"wmin/best/16nm/y0.5/r10", "qs1-cf93f054a9981ca69f62b506", 0x4041165f3a666667, 0x3ea1eaa4a8900000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/16nm/y0.5/r360", "qs1-38c103b85b1b688f6ae1daec", 0x403be0104e666666, 0x3ef402f106e58000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/16nm/y0.9/r1", "qs1-fc0505013da9ebb9a0eccaf9", 0x4045032ec0cccccf, 0x3e2bb27a90000000, 0x3fd51eb851eb851f, ""},
	{"wmin/best/16nm/y0.9/r10", "qs1-0cdb8dc22e67738f43998212", 0x4043500214000001, 0x3e60ace741000000, 0x3fd51eb851eb851f, ""},
	{"wmin/best/16nm/y0.9/r360", "qs1-0294e718b1be0298b1b2a0e8", 0x403f4669a8000000, 0x3ec8243c02200000, 0x3fc0a3d70a3d70a4, ""},
	{"wmin/best/16nm/y0.99/r1", "qs1-5b63d82e33ca30089f09dde2", 0x4046a993abffffff, 0x3df504fc80000000, 0x3fd51eb851eb851f, ""},
	{"wmin/best/16nm/y0.99/r10", "qs1-2b741cf054358afde6199263", 0x404509a060cccccd, 0x3e29d60180000000, 0x3fd51eb851eb851f, ""},
	{"wmin/best/16nm/y0.99/r360", "qs1-5a42f6ba2f5a852b0214e203", 0x40419cd567333333, 0x3e92419c9b200000, 0x3fc0a3d70a3d70a4, ""},
	{"pf/pm0.2-prs0.1/w155", "qs1-6f83fdbb2c9a1bc562146dfe", 0x3d20cf826a2e60f4, 0x3fd1eb851eb851ec, 0x0, ""},
	{"wmin/pm0.2-prs0.1", "qs1-ac5f9d40c2da2b71adee558e", 0x405624cc00666666, 0x3e4189529b245336, 0x3fc0a3d70a3d70a4, ""},
	{"pf/pitch3.5/w155", "qs1-1e0f41b7e0c4878c76eb512b", 0x3de9e50d3c1023b1, 0x3fe0fdf3b645a1cb, 0x0, ""},
	{"wmin/pitch3.5", "qs1-1cdf0d17f480598bbedcfec6", 0x4060ed9d01000000, 0x3e2b640eafef6a90, 0x3fd51eb851eb851f, ""},
}
