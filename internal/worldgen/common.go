package worldgen

import (
	"pinscope/internal/appmodel"
	"pinscope/internal/detrand"
)

// planCommonPairs plans both platform versions of every common app, one
// unit per pair. Cross-platform pinning behaviour follows the §5.1 class
// distribution: the same product may pin identically, partially,
// contradictorily, or on one platform only — or not at all.
func (w *World) planCommonPairs() []*unit {
	da, di := w.DS.CommonAndroid, w.DS.CommonIOS
	avg := w.avgCatMult(da)
	units := make([]*unit, 0, len(da.Listings))
	for idx := range da.Listings {
		la, li := da.Listings[idx], di.Listings[idx]
		rng := w.rng.Child("pair/" + la.CrossKey)
		class := drawPairClass(rng, catMultOf(la.Category)/avg)

		slug := w.slugFor(la.Name, "pair/"+la.CrossKey)
		base := slug + ".com"
		api := "api." + base
		www := "www." + base
		syncA := "sync." + base // contacted by Android builds only
		imgI := "img." + base   // contacted by iOS builds only
		cfgI := "cfg." + base

		bpA := &blueprint{listing: la, tier: TierCommon, fpPinned: map[string]bool{}, forceUsedFP: true, caPinOnly: true}
		bpI := &blueprint{listing: li, tier: TierCommon, fpPinned: map[string]bool{}, forceUsedFP: true, caPinOnly: true}

		pinA := func(ds ...string) {
			bpA.pins, bpA.fpPin = true, true
			for _, d := range ds {
				bpA.fpPinned[d] = true
			}
		}
		pinI := func(ds ...string) {
			bpI.pins, bpI.fpPin = true, true
			for _, d := range ds {
				bpI.fpPinned[d] = true
			}
		}

		switch class {
		case pairNeither:
			bpA.fpContact = []string{api, www}
			bpI.fpContact = []string{api, www}

		case pairBothIdentical:
			bpA.fpContact = []string{api, www}
			bpI.fpContact = []string{api, www}
			if rng.Bool(0.5) {
				pinA(api)
				pinI(api)
			} else {
				pinA(api, www)
				pinI(api, www)
			}

		case pairBothSubset:
			// One shared pinned domain; each platform pins extras the other
			// never contacts (consistent but non-identical sets).
			bpA.fpContact = []string{api, syncA}
			bpI.fpContact = []string{api, imgI, cfgI}
			pinA(api, syncA)
			pinI(api, imgI, cfgI)

		case pairBothInconsistent:
			if rng.Bool(0.4) {
				// Overlapping variant: both pin api; Android also pins www,
				// which iOS uses unpinned.
				bpA.fpContact = []string{api, www}
				bpI.fpContact = []string{api, www}
				pinA(api, www)
				pinI(api)
			} else {
				// Disjoint variant: each pins what the other leaves open.
				bpA.fpContact = []string{api, www}
				bpI.fpContact = []string{api, www}
				pinA(www)
				pinI(api)
			}

		case pairBothInconclusive:
			// Both pin, but only platform-exclusive domains.
			bpA.fpContact = []string{www, syncA}
			bpI.fpContact = []string{www, imgI}
			pinA(syncA)
			pinI(imgI)

		case pairAndroidOnlyInconsistent:
			bpA.fpContact = []string{api, www}
			bpI.fpContact = []string{api, www}
			pinA(api)

		case pairAndroidOnlyInconclusive:
			bpA.fpContact = []string{syncA, www}
			bpI.fpContact = []string{www, imgI}
			pinA(syncA)

		case pairIOSOnlyInconsistent:
			bpA.fpContact = []string{api, www}
			bpI.fpContact = []string{api, www}
			pinI(api)

		case pairIOSOnlyInconclusive:
			bpA.fpContact = []string{www, syncA}
			bpI.fpContact = []string{www, imgI}
			pinI(imgI)
		}

		units = append(units, &unit{
			builds: []appBuild{
				{key: string(appmodel.Android) + "/" + la.ID, bp: bpA, rng: rng.Child("android"), label: "pair " + la.CrossKey + " android"},
				{key: string(appmodel.IOS) + "/" + li.ID, bp: bpI, rng: rng.Child("ios"), label: "pair " + la.CrossKey + " ios"},
			},
			pair: &CommonPair{Name: la.Name, TruthClass: classNames[class]},
		})
	}
	return units
}

var classNames = map[pairClass]string{
	pairNeither:                 "neither",
	pairBothIdentical:           "both-identical",
	pairBothSubset:              "both-subset",
	pairBothInconsistent:        "both-inconsistent",
	pairBothInconclusive:        "both-inconclusive",
	pairAndroidOnlyInconsistent: "android-only-inconsistent",
	pairAndroidOnlyInconclusive: "android-only-inconclusive",
	pairIOSOnlyInconsistent:     "ios-only-inconsistent",
	pairIOSOnlyInconclusive:     "ios-only-inconclusive",
}

// drawPairClass samples a consistency class. catBoost scales the overall
// probability of pinning at all (finance products pin more, on both
// platforms), leaving the conditional class mix unchanged.
func drawPairClass(rng *detrand.Source, catBoost float64) pairClass {
	var pinW, noneW float64
	for _, cw := range pairClassWeights {
		if cw.class == pairNeither {
			noneW += cw.w
		} else {
			pinW += cw.w
		}
	}
	pPin := pinW / (pinW + noneW) * catBoost
	if pPin > 0.95 {
		pPin = 0.95
	}
	if !rng.Bool(pPin) {
		return pairNeither
	}
	weights := make([]float64, 0, len(pairClassWeights))
	classes := make([]pairClass, 0, len(pairClassWeights))
	for _, cw := range pairClassWeights {
		if cw.class == pairNeither {
			continue
		}
		classes = append(classes, cw.class)
		weights = append(weights, cw.w)
	}
	return classes[rng.WeightedIndex(weights)]
}
