package faultinject

import (
	"reflect"
	"testing"
)

func TestNilAndZeroPlansInjectNothing(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Fatal("nil plan enabled")
	}
	if nilPlan.ForApp("a", 0) != nil {
		t.Fatal("nil plan yielded app faults")
	}
	zero := NewPlan(1, Uniform(0))
	if zero.Enabled() {
		t.Fatal("zero-rate plan enabled")
	}
	if zero.ForApp("a", 0) != nil {
		t.Fatal("zero-rate plan yielded app faults")
	}

	// Nil AppFaults views are inert.
	var af *AppFaults
	if af.DecryptFails() {
		t.Fatal("nil app faults failed decryption")
	}
	if af.NetTap("baseline") != nil {
		t.Fatal("nil app faults produced a tap")
	}
	if w, ok := af.Run("baseline").TruncatedWindow(30); ok || w != 30 {
		t.Fatal("nil run faults truncated the window")
	}
	if _, ok := af.Run("baseline").CrashTime(30); ok {
		t.Fatal("nil run faults crashed the app")
	}
	if af.ForgeTap().ForgeFails("x.example") {
		t.Fatal("nil forge tap failed")
	}
}

func TestDecisionsAreDeterministicAndScopeKeyed(t *testing.T) {
	p1 := NewPlan(42, Uniform(0.5))
	p2 := NewPlan(42, Uniform(0.5))

	a1 := p1.ForApp("app.one", 0)
	a2 := p2.ForApp("app.one", 0)
	for _, host := range []string{"a.example", "b.example", "c.example"} {
		cf1 := a1.NetTap("mitm").ConnFaults(host, 3.5)
		cf2 := a2.NetTap("mitm").ConnFaults(host, 3.5)
		if cf1.ResetAfter != cf2.ResetAfter {
			t.Fatalf("reset decision differs for %s: %d vs %d", host, cf1.ResetAfter, cf2.ResetAfter)
		}
		for i := 0; i < 8; i++ {
			if cf1.DropCaptureRecord(i) != cf2.DropCaptureRecord(i) {
				t.Fatalf("drop decision differs for %s record %d", host, i)
			}
		}
		if a1.ForgeTap().ForgeFails(host) != a2.ForgeTap().ForgeFails(host) {
			t.Fatalf("forge decision differs for %s", host)
		}
	}

	// Attempts decorrelate: across many apps, attempt 0 and 1 must not
	// always agree.
	differ := false
	for i := 0; i < 64 && !differ; i++ {
		key := "app" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		d0 := p1.ForApp(key, 0).DecryptFails()
		d1 := p1.ForApp(key, 1).DecryptFails()
		if d0 != d1 {
			differ = true
		}
	}
	if !differ {
		t.Fatal("attempt scoping does not decorrelate decisions")
	}

	// Run legs decorrelate too.
	differ = false
	for i := 0; i < 64 && !differ; i++ {
		host := "h" + string(rune('a'+i%26)) + ".example"
		b := a1.NetTap("baseline").ConnFaults(host, 1)
		m := a1.NetTap("mitm").ConnFaults(host, 1)
		if (b.ResetAfter > 0) != (m.ResetAfter > 0) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("run-leg scoping does not decorrelate decisions")
	}
}

func TestRatesBite(t *testing.T) {
	p := NewPlan(7, Uniform(0.2))
	a := p.ForApp("bite", 0)

	resets, drops, crashes, truncs := 0, 0, 0, 0
	const n = 500
	for i := 0; i < n; i++ {
		host := "host" + string(rune('a'+i%26)) + ".example"
		cf := a.NetTap("baseline").ConnFaults(host, float64(i))
		if cf.ResetAfter > 0 {
			resets++
			if cf.ResetAfter < 1 || cf.ResetAfter > 4 {
				t.Fatalf("reset budget %d outside handshake range", cf.ResetAfter)
			}
		}
		if cf.DropCaptureRecord(i % 8) {
			drops++
		}
		rf := p.ForApp("bite"+string(rune('a'+i%26)), i).Run("baseline")
		if _, ok := rf.CrashTime(30); ok {
			crashes++
		}
		if w, ok := rf.TruncatedWindow(30); ok {
			truncs++
			if w <= 0 || w >= 30 {
				t.Fatalf("truncated window %.2f out of range", w)
			}
		}
	}
	check := func(name string, got int) {
		// 20% ± generous tolerance on 500 samples.
		if got < n/10 || got > n*3/10 {
			t.Fatalf("%s rate implausible: %d/%d", name, got, n)
		}
	}
	check("reset", resets)
	check("drop", drops)
	check("crash", crashes)
	check("trunc", truncs)
}

func TestShardPlanLookupsNilSafe(t *testing.T) {
	var nilPlan *ShardPlan
	if nilPlan.Any() || nilPlan.KillFor(0) != nil || nilPlan.ExpiryFor(0) != nil {
		t.Fatal("nil ShardPlan injected something")
	}
	p := &ShardPlan{
		Kills:    []ShardKill{{Slice: 2, AfterResults: 3, TornBytes: 5}},
		Expiries: []LeaseExpiry{{Slice: 1, AfterResults: 1}},
	}
	if !p.Any() {
		t.Fatal("populated plan reports empty")
	}
	if k := p.KillFor(2); k == nil || k.AfterResults != 3 || k.TornBytes != 5 {
		t.Fatalf("KillFor(2) = %+v", p.KillFor(2))
	}
	if p.KillFor(1) != nil || p.ExpiryFor(2) != nil {
		t.Fatal("lookup matched the wrong slice")
	}
	if e := p.ExpiryFor(1); e == nil || e.AfterResults != 1 {
		t.Fatalf("ExpiryFor(1) = %+v", p.ExpiryFor(1))
	}
}

func TestDeriveShardPlanDeterministicAndCapped(t *testing.T) {
	items := []int{10, 10, 10, 10, 10, 10, 10, 10}
	a := DeriveShardPlan(77, 0.9, 4, items)
	b := DeriveShardPlan(77, 0.9, 4, items)
	if a == nil || b == nil {
		t.Fatal("high-rate derivation produced no faults")
	}
	if len(a.Kills) != len(b.Kills) || len(a.Expiries) != len(b.Expiries) {
		t.Fatal("same seed produced different plans")
	}
	for i := range a.Kills {
		if a.Kills[i] != b.Kills[i] {
			t.Fatalf("kill %d differs: %+v vs %+v", i, a.Kills[i], b.Kills[i])
		}
	}
	for i := range a.Expiries {
		if a.Expiries[i] != b.Expiries[i] {
			t.Fatalf("expiry %d differs: %+v vs %+v", i, a.Expiries[i], b.Expiries[i])
		}
	}
	if len(a.Kills) > 3 {
		t.Fatalf("%d kills with 4 workers: no survivor guaranteed", len(a.Kills))
	}
	for _, k := range a.Kills {
		if k.AfterResults < 0 || k.AfterResults >= items[k.Slice] {
			t.Fatalf("kill point %d outside slice of %d items", k.AfterResults, items[k.Slice])
		}
	}
	if DeriveShardPlan(77, 0, 4, items) != nil {
		t.Fatal("rate 0 produced a plan")
	}
	if c := DeriveShardPlan(78, 0.9, 4, items); len(c.Kills) == len(a.Kills) {
		// Different seeds usually differ; equal counts are fine as long as
		// the cut points moved.
		same := len(a.Kills) > 0
		for i := range c.Kills {
			if i < len(a.Kills) && c.Kills[i] != a.Kills[i] {
				same = false
			}
		}
		if same && len(a.Kills) > 0 {
			t.Log("seed 77 and 78 derived identical kills (unlikely but legal)")
		}
	}
}

func TestDeriveShardPlanNetFamilyCappedAndDeterministic(t *testing.T) {
	items := []int{10, 10, 10, 10, 10, 10, 10, 10}
	a := DeriveShardPlan(311, 1.0, 4, items)
	b := DeriveShardPlan(311, 1.0, 4, items)
	if a == nil || !a.Net.Any() {
		t.Fatalf("rate-1.0 derivation injected no network chaos: %+v", a)
	}
	if !reflect.DeepEqual(a.Net, b.Net) {
		t.Fatalf("same seed derived different network chaos:\n%+v\n%+v", a.Net, b.Net)
	}

	// Progress cap: the faults that hamper progress — kills, drops
	// (severed conns), partitions — must leave at least one slice on a
	// never-severed link.
	hampered := len(a.Kills) + len(a.Net.Drops) + len(a.Net.Partitions)
	if hampered > len(items)-1 {
		t.Fatalf("%d hampering faults across %d slices: no guaranteed progress", hampered, len(items))
	}
	// A killed slice draws no drop or partition on top: the kill already
	// severs its connection.
	killed := map[int]bool{}
	for _, k := range a.Kills {
		killed[k.Slice] = true
	}
	for _, d := range a.Net.Drops {
		if killed[d.Slice] {
			t.Fatalf("slice %d drew both a kill and a drop", d.Slice)
		}
	}
	for _, p := range a.Net.Partitions {
		if killed[p.Slice] {
			t.Fatalf("slice %d drew both a kill and a partition", p.Slice)
		}
	}

	// Every fault point stays inside its slice, and durations are drawn
	// relative to NetTTL so they interact with a lease deadline.
	for _, d := range a.Net.Delays {
		if d.Item < 0 || d.Item >= items[d.Slice] {
			t.Fatalf("delay item %d outside slice of %d items", d.Item, items[d.Slice])
		}
		if d.Ticks < NetTTL/2 {
			t.Fatalf("delay of %d ticks cannot overtake anything meaningful (TTL %d)", d.Ticks, NetTTL)
		}
	}
	for _, d := range a.Net.Drops {
		if d.Item < 0 || d.Item >= items[d.Slice] {
			t.Fatalf("drop item %d outside slice of %d items", d.Item, items[d.Slice])
		}
	}
	for _, d := range a.Net.Dups {
		if d.Item < 0 || d.Item >= items[d.Slice] {
			t.Fatalf("dup item %d outside slice of %d items", d.Item, items[d.Slice])
		}
	}
	for _, p := range a.Net.Partitions {
		if p.AfterItem < 0 || p.AfterItem >= items[p.Slice] {
			t.Fatalf("partition point %d outside slice of %d items", p.AfterItem, items[p.Slice])
		}
		if p.Ticks < NetTTL {
			t.Fatalf("partition of %d ticks cannot outlive a lease (TTL %d)", p.Ticks, NetTTL)
		}
	}

	// The stall point of a derived expiry stays strictly inside the
	// leased region: a stall after the final append would sit between the
	// work and the lease release, which the coordinator refuses to honor.
	for _, e := range a.Expiries {
		if e.AfterResults < 1 || e.AfterResults > items[e.Slice]-1 {
			t.Fatalf("expiry point %d outside [1, %d]", e.AfterResults, items[e.Slice]-1)
		}
	}

	if DeriveShardPlan(311, 0, 4, items) != nil {
		t.Fatal("rate 0 produced a plan")
	}
}
