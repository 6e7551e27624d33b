package main

import (
	"testing"
)

// small builds each workload at a size that runs in well under a second;
// the code paths are the full-size ones.
var small = map[string]func() workload{
	"route":  func() workload { return newRoute(24) },
	"churn":  func() workload { return newChurn(12) },
	"orient": func() workload { return newOrient(16) },
	"core":   func() workload { return newCore(200) },
}

// counts lists, per workload, the count metrics that must repeat exactly
// for a seed, and those a different seed must change. core-3k's input has
// no random part, so no seed changes its counts.
var counts = map[string]struct{ exact, seeded []string }{
	"route":  {[]string{"walk.hops", "serve.resp_bytes"}, []string{"walk.hops", "serve.resp_bytes"}},
	"churn":  {[]string{"dyn.steps", "dyn.messages", "dyn.epochs", "walk.hops"}, []string{"walk.hops"}},
	"orient": {[]string{"dist.steps", "dist.messages", "dist.remote"}, []string{"dist.steps", "dist.messages"}},
	"core":   {[]string{"core.steps"}, nil},
}

func tracedRun(t *testing.T, name string, seed int64) *report {
	t.Helper()
	rep, err := measure(runConfig{name: name, seed: seed, seconds: 0.05, traced: true}, small[name])
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", name, seed, rep.failed, rep.attempted, rep.errs)
	}
	return rep
}

func TestCountsRepeatForASeedAndFollowIt(t *testing.T) {
	for name, c := range counts {
		t.Run(name, func(t *testing.T) {
			a, b, other := tracedRun(t, name, 1), tracedRun(t, name, 1), tracedRun(t, name, 2)
			for _, m := range c.exact {
				if a.layered[m] == 0 {
					t.Errorf("%s = 0: the layer was not exercised", m)
				}
				if a.layered[m] != b.layered[m] {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", m, a.layered[m], b.layered[m])
				}
			}
			for _, m := range c.seeded {
				if a.layered[m] == other.layered[m] {
					t.Errorf("%s is %v under seeds 1 and 2: the seed does not reach the input", m, a.layered[m])
				}
			}
		})
	}
}

func TestEndToEndMetricsArePositive(t *testing.T) {
	for name := range small {
		t.Run(name, func(t *testing.T) {
			rep, err := measure(runConfig{name: name, seed: 3, seconds: 0.05}, small[name])
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.errs)
			}
			ms := rep.metrics(false)
			if len(ms) != len(endToEnd) {
				t.Errorf("got %d metrics, want %d", len(ms), len(endToEnd))
			}
			for _, e := range endToEnd {
				if m, ok := ms[e.name]; !ok || m.Value <= 0 || m.Unit != e.unit {
					t.Errorf("%s = %+v, want a positive value in %s", e.name, m, e.unit)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	rep := tracedRun(t, "route", 1)
	ms := rep.metrics(true)
	if len(ms) != len(perLayer) {
		t.Errorf("got %d metrics, want %d", len(ms), len(perLayer))
	}
	for _, m := range []string{"serve.handler_us", "walk.route_us", "walk.ns_per_hop", "serve.allocs", "setup.network_s"} {
		if ms[m].Value <= 0 {
			t.Errorf("%s = %v on route, want > 0", m, ms[m].Value)
		}
	}
}
