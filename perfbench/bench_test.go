package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 10, false}, // rank 10: 9 beyond
		{20, 0.50, 10, true},  // rank 10: 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is reportable")
	}
}

func TestTailIsHighestReportableLevel(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q, v, ok := tail(xs)
	if !ok || q != 0.90 || v != 90 {
		t.Errorf("tail of 100 samples = p%g %g %v; want p90 90 true", 100*q, v, ok)
	}
	if _, _, ok := tail(xs[:30]); ok {
		t.Error("30 samples leave fewer than 10 beyond p75 yet a tail was reported")
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]time.Duration, 300)
	growing := make([]time.Duration, 300)
	for i := range flat {
		flat[i] = 100*time.Microsecond + time.Duration(i%7)*20*time.Microsecond
		growing[i] = time.Duration(i) * 100 * time.Microsecond // 30ms behind by the end
	}
	if backlogGrowing(flat) {
		t.Error("a steady queue was reported as growing")
	}
	if !backlogGrowing(growing) {
		t.Error("a queue falling further behind was not reported")
	}
	if backlogGrowing(nil) {
		t.Error("no samples reported as a growing backlog")
	}
}

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	const pool = 113
	plan := func(seed int64, rung int) []planned {
		return makePlan(seed, rung, 2000, 2*time.Second, pool)
	}
	a, b := plan(7, 0), plan(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different plans")
	}
	if reflect.DeepEqual(a, plan(8, 0)) {
		t.Error("different seeds gave the same plan")
	}
	if reflect.DeepEqual(a, plan(7, 1)) {
		t.Error("different rungs gave the same plan")
	}
	if n := len(a); n < 3600 || n > 4400 {
		t.Errorf("2000 req/s for 2s planned %d requests", n)
	}
	drawn := map[int]int{}
	for i, p := range a {
		if p.item < 0 || p.item >= pool {
			t.Fatalf("request %d draws item %d of a pool of %d", i, p.item, pool)
		}
		if i > 0 && p.due < a[i-1].due {
			t.Fatalf("request %d is due before its predecessor", i)
		}
		drawn[p.item]++
	}
	// Uniform draws: about 35 per item, and every item drawn.
	if len(drawn) != pool {
		t.Errorf("plan drew %d of %d pool entries", len(drawn), pool)
	}
	for item, n := range drawn {
		if n > 80 {
			t.Errorf("item %d drawn %d times of about %d", item, n, len(a)/pool)
		}
	}
}

func TestQuartileSpreadMatchesPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(xs); got != (8.25-2.75)/5.5 {
		t.Errorf("quartileSpread = %g, want %g", got, (8.25-2.75)/5.5)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	if got := covered([][2]int64{{10, 30}, {20, 40}, {50, 60}, {95, 200}}, 0, 100); got != 45 {
		t.Errorf("covered = %d, want 45", got)
	}
	tr := newTracer()
	tr.spans = []span{
		{Name: "app", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 40},
		{Name: "open", Parent: 0, Start: 50, End: -1},
	}
	if self := tr.selfTimes(); self[0] != 70 || self[1] != 20 {
		t.Errorf("self times %v, want app 70 and a 20", self)
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	js, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalog %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q, catalog %q", i, w.Name, workloads[i].Name)
		}
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for _, sec := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(sec.json) != len(sec.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalog %d", len(sec.json), len(sec.defs))
		}
		for i, m := range sec.json {
			if m.Name != sec.defs[i].Name || m.Unit != sec.defs[i].Unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], catalog %s [%s]", i, m.Name, m.Unit, sec.defs[i].Name, sec.defs[i].Unit)
			}
		}
	}
}

func TestProbeScalesByTheTwoPointsAround(t *testing.T) {
	p := prober{wall: []float64{0.1, 0.3, 0.2}, cpu: []float64{0.2, 0.2, 0.4}, loop: []float64{0.01, 0.03, 0.02}}
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"wall between 0 and 1", p.wallScale(0), probeRefWall / 0.2},
		{"wall between 1 and 2", p.wallScale(1), probeRefWall / 0.25},
		{"wall after the last", p.wallScale(2), probeRefWall / 0.2},
		{"cpu between 1 and 2", p.cpuScale(1), probeRefCPU / 0.3},
		{"loopback between 0 and 1", p.loopScale(0), probeRefLoop / 0.02},
	} {
		if math.Abs(tc.got-tc.want) > 1e-12 {
			t.Errorf("%s: scale %g, want %g", tc.name, tc.got, tc.want)
		}
	}
}

func TestProbePointRecordsEverySeries(t *testing.T) {
	var p prober
	if k := p.point(); k != 0 {
		t.Fatalf("first point has index %d", k)
	}
	if k := p.point(); k != 1 {
		t.Fatalf("second point has index %d", k)
	}
	for name, xs := range map[string][]float64{"wall": p.wall, "cpu": p.cpu, "loopback": p.loop} {
		if len(xs) != 2 || xs[0] <= 0 || xs[1] <= 0 {
			t.Errorf("%s: %v, want two positive times", name, xs)
		}
	}
	if len(p.parts) != 2 || len(p.parts[0]) != len(probeParts) {
		t.Errorf("parts: %v, want 2 points of %d pieces", p.parts, len(probeParts))
	}
}
