package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"gammajoin/internal/fault"
	"gammajoin/internal/gamma"
	"gammajoin/internal/pred"
	"gammajoin/internal/tuple"
	"gammajoin/internal/wisconsin"
)

// TestCostFingerprint pins the simulated cost of a matrix of small joins to
// constants. Every other cost gate in the package compares a build with
// itself (serial against batched, one run against a rerun); this one
// compares the build against the numbers the code produced when the
// constants were recorded, so a refactor of the join code that moves one
// charge, one disk-operation reordering or one trace span fails tier 1.
//
// Each cell pins the response time, the result and overflow counts, the
// network/disk/forming counters, a SHA-256 of the full report (per-phase
// stats and per-site accounts included) and a SHA-256 of the canonical
// Chrome trace export. A deliberate cost-model change must update the
// constants by hand and say so.

// fpCell is one matrix cell: a cluster shape, an optional cluster mutation
// applied before loading, and the join spec.
type fpCell struct {
	name   string
	remote bool
	skew   bool // NU-skewed fixture joined on Normal, range-loaded
	hpja   bool // hash-partitioned on the join attribute
	setup  func(t *testing.T, c *gamma.Cluster)
	alg    Algorithm
	ratio  float64
	opts   func(sp *Spec)
}

// fpCells is the matrix: every algorithm at memory 1, 0.5 and 0.2 (local
// HPJA), every algorithm remote non-HPJA, plus one cell per specialised
// routing path.
func fpCells() []fpCell {
	var cells []fpCell
	for _, alg := range allAlgs {
		for _, ratio := range []float64{1, 0.5, 0.2} {
			cells = append(cells, fpCell{
				name: fmt.Sprintf("%v/local-hpja/%.1f", alg, ratio),
				alg:  alg, ratio: ratio, hpja: true,
			})
		}
		cells = append(cells, fpCell{
			name: fmt.Sprintf("%v/remote/0.5", alg),
			alg:  alg, ratio: 0.5, remote: true,
		})
		cells = append(cells, fpCell{
			name: fmt.Sprintf("%v/local/filter-forming/0.2", alg),
			alg:  alg, ratio: 0.2,
			opts: func(sp *Spec) { sp.BitFilter, sp.FilterForming = true, true },
		})
		cells = append(cells, fpCell{
			name: fmt.Sprintf("%v/remote/bitfilter-pred/0.2", alg),
			alg:  alg, ratio: 0.2, remote: true,
			opts: func(sp *Spec) {
				sp.BitFilter = true
				sp.RPred = pred.Cmp{Attr: tuple.Unique1, Op: pred.LT, Val: 300}
				sp.SPred = pred.Cmp{Attr: tuple.Unique2, Op: pred.GE, Val: 100}
			},
		})
	}
	mirrorCrash := func(phase int) func(t *testing.T, c *gamma.Cluster) {
		return func(t *testing.T, c *gamma.Cluster) {
			if err := c.EnableMirrors(); err != nil {
				t.Fatal(err)
			}
			c.EnableFaults(fault.Spec{Seed: 99, Crash: &fault.CrashPoint{Phase: phase, Site: 3}})
		}
	}
	cells = append(cells,
		fpCell{
			name: "grace/skew-nu/bucket-tuning/0.13", alg: Grace, ratio: 0.13, skew: true,
			opts: func(sp *Spec) { sp.BucketTuning = true },
		},
		fpCell{
			name: "grace/skew-nu/0.13", alg: Grace, ratio: 0.13, skew: true,
		},
		fpCell{
			name: "hybrid/local-hpja/allow-overflow/0.4", alg: Hybrid, ratio: 0.4, hpja: true,
			opts: func(sp *Spec) { sp.AllowOverflow = true },
		},
		fpCell{
			name: "hybrid/remote/allow-overflow/0.4", alg: Hybrid, ratio: 0.4, remote: true,
			opts: func(sp *Spec) { sp.AllowOverflow = true },
		},
		fpCell{
			name: "simple/local-hpja/mem-pressure/0.5", alg: Simple, ratio: 0.5, hpja: true,
			setup: func(t *testing.T, c *gamma.Cluster) {
				c.EnableFaults(fault.Spec{Seed: 7, MemPressureRate: 0.5, MemShrinkFactor: 0.6, MemGrowFactor: 1.4})
			},
		},
		fpCell{
			name: "hybrid-dyn/local-hpja/swing-est4/0.5", alg: HybridDyn, ratio: 0.5, hpja: true,
			setup: func(t *testing.T, c *gamma.Cluster) { c.EnableFaults(dynSpec(17)) },
			opts:  func(sp *Spec) { sp.EstErrorFactor = 4 },
		},
		fpCell{
			name: "hybrid-dyn/remote/swing-est0.25-filter/0.3", alg: HybridDyn, ratio: 0.3, remote: true,
			setup: func(t *testing.T, c *gamma.Cluster) { c.EnableFaults(dynSpec(3)) },
			opts: func(sp *Spec) {
				sp.EstErrorFactor = 0.25
				sp.BitFilter, sp.FilterForming = true, true
			},
		},
		fpCell{
			name: "hybrid/local-hpja/mirror-failover/0.25", alg: Hybrid, ratio: 0.25, hpja: true,
			setup: mirrorCrash(midUnitCrash[Hybrid]),
		},
		fpCell{
			name: "grace/local-hpja/mirror-failover/0.25", alg: Grace, ratio: 0.25, hpja: true,
			setup: mirrorCrash(midUnitCrash[Grace]),
		},
	)
	return cells
}

// fingerprint is what one cell pins.
type fingerprint struct {
	Response                int64 // ns
	Results                 int64
	ROver, SOver, Levels    int64
	NetRemote, NetLocal     int64 // packets
	PagesRead, PagesWritten int64
	FormLocal, FormRemote   int64 // tuples
	ReportSHA, TraceSHA     string
}

func runFingerprint(t *testing.T, cell fpCell) fingerprint {
	t.Helper()
	var c *gamma.Cluster
	if cell.remote {
		c = gamma.NewRemote(8, 8, nil)
	} else {
		c = gamma.NewLocal(8, nil)
	}
	if cell.setup != nil {
		cell.setup(t, c)
	}
	var f fixture
	rAttr, sAttr := tuple.Unique1, tuple.Unique1
	switch {
	case cell.skew:
		outer := wisconsin.GenerateSkewed(4000, 5)
		inner := wisconsin.RandomSubset(outer, 400, 6)
		s, err := gamma.Load(c, "A", outer, gamma.RangeUniform, tuple.Normal)
		if err != nil {
			t.Fatal(err)
		}
		r, err := gamma.Load(c, "B", inner, gamma.RangeUniform, tuple.Normal)
		if err != nil {
			t.Fatal(err)
		}
		f = fixture{c: c, r: r, s: s}
		rAttr = tuple.Normal
	case cell.hpja:
		f = mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique1)
	default:
		f = mkFixture(t, c, 4000, gamma.HashPart, tuple.Unique2)
	}
	rep := runJoin(t, f, cell.alg, cell.ratio, func(sp *Spec) {
		sp.RAttr, sp.SAttr = rAttr, sAttr
		if cell.opts != nil {
			cell.opts(sp)
		}
	})
	trace := sha256.Sum256([]byte(chromeJSON(t, rep.Trace)))
	rep.Trace = nil
	report := sha256.Sum256([]byte(fmt.Sprintf("%+v", *rep)))
	return fingerprint{
		Response:     int64(rep.Response),
		Results:      rep.ResultCount,
		ROver:        rep.ROverflowed,
		SOver:        rep.SOverflowed,
		Levels:       int64(rep.OverflowLevels),
		NetRemote:    rep.Net.PacketsRemote,
		NetLocal:     rep.Net.PacketsLocal,
		PagesRead:    int64(rep.Disk.PagesRead),
		PagesWritten: int64(rep.Disk.PagesWritten),
		FormLocal:    int64(rep.Forming.TuplesLocal),
		FormRemote:   int64(rep.Forming.TuplesRemote),
		ReportSHA:    hex.EncodeToString(report[:]),
		TraceSHA:     hex.EncodeToString(trace[:]),
	}
}

func TestCostFingerprint(t *testing.T) {
	cells := fpCells()
	var got strings.Builder
	failed := false
	seen := map[string]bool{}
	for _, cell := range cells {
		if seen[cell.name] {
			t.Fatalf("duplicate cell %q", cell.name)
		}
		seen[cell.name] = true
		fp := runFingerprint(t, cell)
		fmt.Fprintf(&got, "\t%q: %#v,\n", cell.name, fp)
		want, ok := costFingerprints[cell.name]
		if !ok {
			t.Errorf("%s: no pinned fingerprint", cell.name)
			failed = true
			continue
		}
		if fp != want {
			t.Errorf("%s: simulated cost moved:\n got  %+v\n want %+v", cell.name, fp, want)
			failed = true
		}
	}
	if len(costFingerprints) != len(cells) {
		t.Errorf("%d pinned fingerprints for %d cells", len(costFingerprints), len(cells))
		failed = true
	}
	if failed {
		t.Logf("fingerprints of this build:\n%s", got.String())
	}
}

// costFingerprints holds the recorded values, one per fpCells entry.
var costFingerprints = map[string]fingerprint{
	"sort-merge/local-hpja/1.0": {
		Response: 9171604311, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 512, PagesRead: 784, PagesWritten: 768,
		FormLocal: 4400, FormRemote: 0,
		ReportSHA: "c37d48a6c46d70802b2328cf0f74786067c1c1ca5d8d7b7ce50d7922fd7676f8",
		TraceSHA:  "fedf7500afecddba8fe904625db112740775490410c417eb02195f966bfe1180",
	},
	"sort-merge/local-hpja/0.5": {
		Response: 9258570929, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 512, PagesRead: 704, PagesWritten: 688,
		FormLocal: 4400, FormRemote: 0,
		ReportSHA: "28968f9db34fb7de1f917766692b19da620d41d8b7ae9e98b59cc3ad5b169b53",
		TraceSHA:  "4215f521f0bea7b3622565364cf6a960cd809e309da33dc55a2a1fe15c3b3170",
	},
	"sort-merge/local-hpja/0.2": {
		Response: 9258570929, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 512, PagesRead: 704, PagesWritten: 688,
		FormLocal: 4400, FormRemote: 0,
		ReportSHA: "28968f9db34fb7de1f917766692b19da620d41d8b7ae9e98b59cc3ad5b169b53",
		TraceSHA:  "4215f521f0bea7b3622565364cf6a960cd809e309da33dc55a2a1fe15c3b3170",
	},
	"sort-merge/remote/0.5": {
		Response: 10950237532, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 590, NetLocal: 82, PagesRead: 704, PagesWritten: 688,
		FormLocal: 526, FormRemote: 3874,
		ReportSHA: "55f3f2de469e48382f74f98c89a203d915f771a38b98a77fd065b1b494e17318",
		TraceSHA:  "11607eb1f8ce5d00ec78d23c5b0325a9374a2f36d948ce3a56aad52cceb2e86f",
	},
	"sort-merge/local/filter-forming/0.2": {
		Response: 5951474665, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 590, NetLocal: 82, PagesRead: 216, PagesWritten: 112,
		FormLocal: 526, FormRemote: 3874,
		ReportSHA: "17aeb52550ef12c2ef92d86daf3dd366fc9e615ed9c88ace0e195ddbdd659a28",
		TraceSHA:  "8c7be7618a75502d6ecbccb850987b6ed5a46c4a7fe1a065100aa7cf14641e48",
	},
	"sort-merge/remote/bitfilter-pred/0.2": {
		Response: 5587408285, Results: 294, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 557, NetLocal: 73, PagesRead: 176, PagesWritten: 72,
		FormLocal: 510, FormRemote: 3690,
		ReportSHA: "790cf31522554193f7fd26c7f996054098833a8525ecc078320493b0b3282abd",
		TraceSHA:  "1c29278d23cc78fdc164d8923afb52655e963e3c1d90ebf3ec751946c3556bba",
	},
	"simple/local-hpja/1.0": {
		Response: 3012375378, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 512, PagesRead: 120, PagesWritten: 16,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "3f4d9489bb81f30a896dace9af60f42414b6f009a1722ff958e1f54948acf54b",
		TraceSHA:  "438dc61ab75e545abc977dfc2df8d1ab67062e492b0a65b9c7e568984fc85741",
	},
	"simple/local-hpja/0.5": {
		Response: 7019146708, Results: 400, ROver: 210, SOver: 2221, Levels: 2,
		NetRemote: 449, NetLocal: 585, PagesRead: 193, PagesWritten: 89,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "b18b7664b9ba96123d230f7bb55a24c4ba257ecaf36cd75dd530c6d67a58ca03",
		TraceSHA:  "594fef1654e28ad9f6e4d29457d58ca82b57ab4ec38be752394720b05b014513",
	},
	"simple/local-hpja/0.2": {
		Response: 14723162938, Results: 400, ROver: 721, SOver: 7041, Levels: 4,
		NetRemote: 1320, NetLocal: 777, PagesRead: 349, PagesWritten: 245,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "0a3219a273fc7e351a9a0d4ca0d17596a6845bd5f1118334ca19e441f8549d8b",
		TraceSHA:  "a0e750d86b993c6dcce7f305a75819ba6103cee326a43ad81c0b528ba64c15db",
	},
	"simple/remote/0.5": {
		Response: 8647113790, Results: 400, ROver: 209, SOver: 2177, Levels: 2,
		NetRemote: 1068, NetLocal: 34, PagesRead: 191, PagesWritten: 87,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "6467681e1a89997de41aa35087295759e04e1d2535c0f4055c41a23fca015b3a",
		TraceSHA:  "c75ed5b7d2657f980254c5957c01ea5c0e38bf101f49c9a0d592a225990a3a3d",
	},
	"simple/local/filter-forming/0.2": {
		Response: 9858781888, Results: 400, ROver: 721, SOver: 799, Levels: 4,
		NetRemote: 894, NetLocal: 224, PagesRead: 192, PagesWritten: 88,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "f7a8d6a48f7aaac982b5d1eda2d874347fa8d9e0684019c87be3118ba8a9212d",
		TraceSHA:  "84b7bac17ec96355c62cc272687136089ac4636976f03ecad19071d73eb045fb",
	},
	"simple/remote/bitfilter-pred/0.2": {
		Response: 8350677002, Results: 294, ROver: 374, SOver: 427, Levels: 3,
		NetRemote: 770, NetLocal: 19, PagesRead: 162, PagesWritten: 52,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "20e34d5199b9475034fd53af0f72a603b46757afefe886c467a6c015f9eb39aa",
		TraceSHA:  "deb4a5ca3f9a33b2738312f83ec0ff308b55069239d6fa52371eabc37a046592",
	},
	"grace/local-hpja/1.0": {
		Response: 5518984176, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 1008, PagesRead: 240, PagesWritten: 136,
		FormLocal: 4400, FormRemote: 0,
		ReportSHA: "39e93f0675625b9a361754303e7b35d13a4d55b40c59e58a7220adf77e86c27a",
		TraceSHA:  "53952d4d1df5aab32bd8e09572e0bcbc35799d0d5afd406d2b86b6fd372bfe92",
	},
	"grace/local-hpja/0.5": {
		Response: 6330827632, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 1008, PagesRead: 248, PagesWritten: 144,
		FormLocal: 4400, FormRemote: 0,
		ReportSHA: "f5f29382f0c148ffcb1ade7a70899d4eeea8e1106d7ef5d47e02dee44653fc9c",
		TraceSHA:  "af0bc7348c7f9ffb3fc7565e0fc552b126841dab3479fbd613d0a4af02fee21f",
	},
	"grace/local-hpja/0.2": {
		Response: 9570724626, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 280, NetLocal: 1160, PagesRead: 280, PagesWritten: 176,
		FormLocal: 4400, FormRemote: 0,
		ReportSHA: "91000a3356fbbf67eb996504e972f25c16d123e4225b945114c1d222036f1460",
		TraceSHA:  "812571828907f94948c3c178349fe39992a936e6f1d183d4132827c313d71656",
	},
	"grace/remote/0.5": {
		Response: 9368161297, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 1173, NetLocal: 75, PagesRead: 248, PagesWritten: 144,
		FormLocal: 526, FormRemote: 3874,
		ReportSHA: "a7a4160698659ca338ee0a33bc69ef5966b178094177dc9ccc89c9c4ac59946e",
		TraceSHA:  "748a37ab0363f9c4c500714bc3eb89e2146f01a4f4bc558f5122040a1052c728",
	},
	"grace/local/filter-forming/0.2": {
		Response: 10855975440, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 1001, NetLocal: 297, PagesRead: 200, PagesWritten: 96,
		FormLocal: 526, FormRemote: 3874,
		ReportSHA: "7d7812e3b54a2a25f0056e3dd26fa085ecbdca5f9424becbaed11e42422b1f0d",
		TraceSHA:  "5d40dd24d2860360d0cb51dc4aec6d2ca897c840d5e473f42845ccb65480cfdf",
	},
	"grace/remote/bitfilter-pred/0.2": {
		Response: 13196458384, Results: 294, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 1063, NetLocal: 93, PagesRead: 280, PagesWritten: 169,
		FormLocal: 510, FormRemote: 3690,
		ReportSHA: "4db00405108da43446bdc7f9704dfc9ce599cc4c99f55452a6df96ce2452bca6",
		TraceSHA:  "f949da87be781e73023a342673eeb77a58d334565e53a15a4206a516b75eadfc",
	},
	"hybrid/local-hpja/1.0": {
		Response: 3012375378, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 512, PagesRead: 120, PagesWritten: 16,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "c2fb6870db72d548dc473ff03ee25e4d7bbd62d55baddd8b264a6f69d098a3a9",
		TraceSHA:  "fe4e0d870c68bec623847d90d1480bd855629f0997f31b79b222ecefaea60bc5",
	},
	"hybrid/local-hpja/0.5": {
		Response: 4672551505, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 760, PagesRead: 184, PagesWritten: 80,
		FormLocal: 2200, FormRemote: 0,
		ReportSHA: "066a1689fddbb6f08c823bd6419205c3dd79a992bf5e32f1ff7e803d78d313c8",
		TraceSHA:  "7fe42ee0e46af26ba9e6c493403456ef8b558fb116eb8465f3f4edc216845aaf",
	},
	"hybrid/local-hpja/0.2": {
		Response: 8410781436, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 280, NetLocal: 1048, PagesRead: 248, PagesWritten: 144,
		FormLocal: 3520, FormRemote: 0,
		ReportSHA: "7d19734d59d007e63ef995ede0feb44937650d06d661577c1c5a0cff06f383f9",
		TraceSHA:  "0ba8f77ca1c80cf83dc56595c80580f062c84a5cae6222000bf501eae67c699b",
	},
	"hybrid/remote/0.5": {
		Response: 6866551860, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 961, NetLocal: 39, PagesRead: 184, PagesWritten: 80,
		FormLocal: 269, FormRemote: 1931,
		ReportSHA: "249101adeb89c279cb6cad496d18cee271efb241d45c4bcb56fea00a50e9210f",
		TraceSHA:  "876519013cf684261c38f0a61710a0a37b3e80085337bc2f290355dc6cd3e1b7",
	},
	"hybrid/local/filter-forming/0.2": {
		Response: 9625548789, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 937, NetLocal: 253, PagesRead: 184, PagesWritten: 80,
		FormLocal: 424, FormRemote: 3096,
		ReportSHA: "efb0f2cefa90df3b1dbcb4b82893f0e9a30abb64574856916747c8ae8fc67018",
		TraceSHA:  "09919aff0f2ddee3be816ddecdf96f7efdfbdd84d8de015736ffcab7ab570b37",
	},
	"hybrid/remote/bitfilter-pred/0.2": {
		Response: 11664081858, Results: 294, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 985, NetLocal: 74, PagesRead: 248, PagesWritten: 137,
		FormLocal: 410, FormRemote: 2954,
		ReportSHA: "7f661b1abbbfc0ff5aeade95171101ea1220aaca8e5ae85b12a1b573573e0d3d",
		TraceSHA:  "46ca1410cbe5eb2e2ae8ae1d5d37546722cdfa865edee1e31b179fea22beb2ab",
	},
	"hybrid-dyn/local-hpja/1.0": {
		Response: 2963675378, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 112, NetLocal: 512, PagesRead: 120, PagesWritten: 16,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "6c7da968154cccfc87f79da313884aba894fdee56ab4b2a60bf03e7398008cf9",
		TraceSHA:  "c62b132d2bc027afadd5eb2166eb615799ff0ab673867e43a69b3e6b4900573f",
	},
	"hybrid-dyn/local-hpja/0.5": {
		Response: 6105275362, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 154, NetLocal: 817, PagesRead: 197, PagesWritten: 93,
		FormLocal: 2247, FormRemote: 0,
		ReportSHA: "f4f9a27a43679c39727ef4a74db9e996ed9c6f2bb1f391346a20a9cba88baf1e",
		TraceSHA:  "33dc29998d54d3f098b1b264d487ce066941b13961a0b3abf0434bef36359d09",
	},
	"hybrid-dyn/local-hpja/0.2": {
		Response: 9848503339, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 295, NetLocal: 983, PagesRead: 282, PagesWritten: 178,
		FormLocal: 3100, FormRemote: 0,
		ReportSHA: "9cd9116e87f136d982eb329c5f12ad8a39eaf36a6e301e8526a01e3370818328",
		TraceSHA:  "dec1d91cb4784038109d3258faeefd98e1cc9131bc262e52013511fa01d6838c",
	},
	"hybrid-dyn/remote/0.5": {
		Response: 8629752175, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 1042, NetLocal: 33, PagesRead: 197, PagesWritten: 93,
		FormLocal: 237, FormRemote: 2002,
		ReportSHA: "f05aa29a24b9eb6323de929b4ef33331fffc4887ae190b0350d7a58b140a87d9",
		TraceSHA:  "65a7a55a2d95fc84248420fb0f6cea93370d1796ac8a82713eb614c9c6db04cd",
	},
	"hybrid-dyn/local/filter-forming/0.2": {
		Response: 9699764105, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 642, NetLocal: 246, PagesRead: 229, PagesWritten: 125,
		FormLocal: 372, FormRemote: 355,
		ReportSHA: "3476edf8576fece391fba78c08c080da215f05d60d347bb5d499781c0d3f94b2",
		TraceSHA:  "7719e6998959e9203c2b70beba20b9e338d449856559680d47d61a7ef81cb2e3",
	},
	"hybrid-dyn/remote/bitfilter-pred/0.2": {
		Response: 10115282043, Results: 294, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 835, NetLocal: 49, PagesRead: 255, PagesWritten: 145,
		FormLocal: 276, FormRemote: 2187,
		ReportSHA: "210b9bb36b4425a9a5bf8abea0423413248f32277734640f2f23f043c41d6a7a",
		TraceSHA:  "88a3a1552a4f902a0cc52d67fdd5d654f9a54f779fbb808bfeb250ad783a9c82",
	},
	"grace/skew-nu/bucket-tuning/0.13": {
		Response: 25470482139, Results: 400, ROver: 76, SOver: 37, Levels: 2,
		NetRemote: 1799, NetLocal: 793, PagesRead: 456, PagesWritten: 348,
		FormLocal: 518, FormRemote: 3882,
		ReportSHA: "2dc5a28b8e16608467014b2fe94e990e029bf344dd3c57a32b671844307af639",
		TraceSHA:  "526c9e6bd55e9ae2b42b933b3bfb35b05eb496585ebc7febbe75283d67a8f144",
	},
	"grace/skew-nu/0.13": {
		Response: 24766589447, Results: 400, ROver: 163, SOver: 367, Levels: 4,
		NetRemote: 1190, NetLocal: 671, PagesRead: 367, PagesWritten: 259,
		FormLocal: 518, FormRemote: 3882,
		ReportSHA: "67f2261cd27c3432e8b54d91dabc1bef4e51ca9f11683a82afc21b8c158f3d76",
		TraceSHA:  "583811872c200aa5116def13e11bea8f41e7f900ac1cbcc021909902c9cc7bd7",
	},
	"hybrid/local-hpja/allow-overflow/0.4": {
		Response: 8000587975, Results: 400, ROver: 66, SOver: 796, Levels: 1,
		NetRemote: 359, NetLocal: 814, PagesRead: 231, PagesWritten: 127,
		FormLocal: 2200, FormRemote: 0,
		ReportSHA: "0a941ee6d324a12775d287d5f615bb3f4080af63d11b2c8f9a57068ec540d918",
		TraceSHA:  "e2076cc0e1b6eb30fc9c9d18180be3fab665ec702248cffab0308dfa37983b02",
	},
	"hybrid/remote/allow-overflow/0.4": {
		Response: 10839138380, Results: 400, ROver: 68, SOver: 828, Levels: 1,
		NetRemote: 1231, NetLocal: 96, PagesRead: 231, PagesWritten: 127,
		FormLocal: 269, FormRemote: 1931,
		ReportSHA: "f1806902bd959459d31d06ea6f2c15ed019121b5306ff40135a8109f9fee5653",
		TraceSHA:  "1e7b5a90693d82afdcca8620ac50ecbee58652e0fdb08302f949785ecd805e48",
	},
	"simple/local-hpja/mem-pressure/0.5": {
		Response: 7019146708, Results: 400, ROver: 210, SOver: 2221, Levels: 2,
		NetRemote: 449, NetLocal: 585, PagesRead: 193, PagesWritten: 89,
		FormLocal: 0, FormRemote: 0,
		ReportSHA: "ef5d711c83cf48b5f0ef0b25df4d1c65654e03730e4a3b3bfc471442cdca4871",
		TraceSHA:  "88dece9448369eec4b806cb8ce0e9992b61d6756f90ce7810348618f555e9a75",
	},
	"hybrid-dyn/local-hpja/swing-est4/0.5": {
		Response: 6847398410, Results: 400, ROver: 0, SOver: 0, Levels: 0,
		NetRemote: 168, NetLocal: 890, PagesRead: 258, PagesWritten: 154,
		FormLocal: 2352, FormRemote: 0,
		ReportSHA: "b535ed28eb1537708aaca14965dea2f371516b2a9b5faf23a981f1b77461b6da",
		TraceSHA:  "1ac0d38e194c4dd8cf8d7df3a8b9dd14b7ade6efd9d0f5f816b41ce82305a610",
	},
	"hybrid-dyn/remote/swing-est0.25-filter/0.3": {
		Response: 13245234977, Results: 400, ROver: 4, SOver: 4, Levels: 1,
		NetRemote: 713, NetLocal: 30, PagesRead: 189, PagesWritten: 85,
		FormLocal: 54, FormRemote: 839,
		ReportSHA: "654a245b2f6fac1749f9443b3563266bee35a499ee3a32247498eee5fb3258d0",
		TraceSHA:  "0f750f37037759e94081108aa88f787c607a3b1013ac009d84deea1039cf2d9f",
	},
	"hybrid/local-hpja/mirror-failover/0.25": {
		Response: 21422020337, Results: 400, ROver: 36, SOver: 441, Levels: 1,
		NetRemote: 1557, NetLocal: 348, PagesRead: 301, PagesWritten: 393,
		FormLocal: 812, FormRemote: 2889,
		ReportSHA: "0b3c66cf182b49cb19c2e0df01fce9642b0f673671cabee5146f72b151fbbbbe",
		TraceSHA:  "a5a9789d066a4ae9a5c39b201d348a4d0c4e3ad722dff3508dadd243499167d9",
	},
	"grace/local-hpja/mirror-failover/0.25": {
		Response: 18674684599, Results: 400, ROver: 36, SOver: 456, Levels: 1,
		NetRemote: 1092, NetLocal: 729, PagesRead: 336, PagesWritten: 446,
		FormLocal: 4400, FormRemote: 0,
		ReportSHA: "515d6ec2d16cde5406748f7e22b3e09d3b81dd16ae47149ce6d5a00172483048",
		TraceSHA:  "fefdcc8521c878931cf82b1e910f750969c5011a67de46d1799696f23e4777fc",
	},
}
