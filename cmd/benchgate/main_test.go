package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Passing reports, one per gate; each table case regresses one field.
func goodHot() *hotHeadline {
	return &hotHeadline{Threads: 1, Headline2DGridSpeedup: 2.0, HeadlineAllocRatio: 100}
}

func goodScale() *scaleHeadline {
	return &scaleHeadline{
		NumCPU: 4, ThreadSweep: []int{1, 2, 4}, TopSelfSpeedup: 3.0,
		Sampled: []sampledHeadline{
			{Dataset: "ss-varden-2d", Sampler: "uniform", Frac: 0.05, Speedup: 2.9, ARI: 0.999},
			{Dataset: "ss-varden-3d", Sampler: "uniform", Frac: 0.05, Speedup: 2.4, ARI: 0.999},
		},
	}
}

func goodServe() *serveHeadline {
	return &serveHeadline{N: 200000, CancelLatencyMaxNS: int64(5 * time.Millisecond), CancelledMidCluster: 10,
		RecoveredEqual: true, BudgetConformant: true}
}

func goodAPI() *apiHeadline {
	return &apiHeadline{Sessions: 200, Requests: 900, RunsCompleted: 500, RetryAfterAlways: true,
		LatencyP99NS: int64(time.Second), QueueP99NS: int64(50 * time.Millisecond),
		BudgetConformant: true, DrainedCleanly: true}
}

func goodEmst() *emstHeadline {
	return &emstHeadline{N: 100000, AmortizationRatio: 8, QueriesEqual: true}
}

func goodOoc() *oocHeadline {
	return &oocHeadline{N: 1000000, DatasetBytes: 16 << 20, BudgetBytes: 4 << 20,
		InRAMWallNS: int64(time.Second), OOCWallNS: int64(2 * time.Second),
		PeakResidentBytes: 3 << 20, LabelsPermEqual: true}
}

type verdict int

const (
	pass verdict = iota
	soft         // warning (an error only under -strict)
	hard         // correctness invariant, always an error
)

func (v verdict) String() string { return [...]string{"pass", "soft", "hard"}[v] }

// TestGatesFire feeds every gate a synthetic report with one regressed
// field and checks the gate fires at today's severity and names what
// regressed; the unmodified reports must pass, so a gate that fires on
// everything fails too.
func TestGatesFire(t *testing.T) {
	cases := []struct {
		name string
		run  func(g *gate)
		want verdict
		msg  string // substring the annotation must contain
	}{
		{"hot passes", func(g *gate) { g.gateHot(goodHot(), goodHot()) }, pass, ""},
		{"hot speedup floor", func(g *gate) {
			h := goodHot()
			h.Headline2DGridSpeedup = 1.1
			g.gateHot(h, nil)
		}, soft, "headline_2d_grid_speedup"},
		{"hot alloc floor", func(g *gate) {
			h := goodHot()
			h.HeadlineAllocRatio = 4
			g.gateHot(h, nil)
		}, soft, "headline_alloc_ratio"},
		{"hot below baseline", func(g *gate) {
			h := goodHot()
			h.Headline2DGridSpeedup = 1.6 // above the floor, 20% below the baseline
			g.gateHot(h, goodHot())
		}, soft, "committed baseline"},
		{"hot thread-mismatched baseline ignored", func(g *gate) {
			h, base := goodHot(), goodHot()
			h.Headline2DGridSpeedup = 1.6
			base.Threads = 4
			g.gateHot(h, base)
		}, pass, "not comparable"},

		{"scale passes", func(g *gate) { g.gateScale(goodScale()) }, pass, "scale ok"},
		{"scale single worker count", func(g *gate) {
			s := goodScale()
			s.ThreadSweep = []int{1}
			g.gateScale(s)
		}, hard, "thread sweep"},
		{"scale self-speedup floor", func(g *gate) {
			s := goodScale()
			s.TopSelfSpeedup = 1.2
			g.gateScale(s)
		}, soft, "self-relative speedup"},
		{"scale floor skipped on one CPU", func(g *gate) {
			s := goodScale()
			s.NumCPU, s.TopSelfSpeedup = 1, 1.0
			g.gateScale(s)
		}, pass, "not applicable"},
		{"scale no sampled rows", func(g *gate) {
			s := goodScale()
			s.Sampled = nil
			g.gateScale(s)
		}, hard, "no sampled-core rows"},
		{"scale sampled ARI", func(g *gate) {
			s := goodScale()
			s.Sampled[1].ARI = 0.8
			g.gateScale(s)
		}, hard, "ss-varden-3d: no sampled-core row with ARI"},
		{"scale sampled speedup", func(g *gate) {
			s := goodScale()
			s.Sampled[0].Speedup = 1.5
			g.gateScale(s)
		}, soft, "ss-varden-2d: best accurate sampled-core speedup"},

		{"serve passes", func(g *gate) { g.gateServe(goodServe()) }, pass, "serve ok"},
		{"serve recovery", func(g *gate) {
			s := goodServe()
			s.RecoveredEqual = false
			g.gateServe(s)
		}, hard, "recovered_equal=false"},
		{"serve budget", func(g *gate) {
			s := goodServe()
			s.BudgetConformant = false
			g.gateServe(s)
		}, hard, "budget_conformant=false"},
		{"serve cancel latency", func(g *gate) {
			s := goodServe()
			s.CancelLatencyMaxNS = int64(80 * time.Millisecond)
			g.gateServe(s)
		}, soft, "cancellation latency"},

		{"api passes", func(g *gate) { g.gateAPI(goodAPI()) }, pass, "api ok"},
		{"api budget", func(g *gate) {
			a := goodAPI()
			a.BudgetConformant = false
			g.gateAPI(a)
		}, hard, "budget_conformant=false"},
		{"api retry-after", func(g *gate) {
			a := goodAPI()
			a.RetryAfterAlways = false
			g.gateAPI(a)
		}, hard, "Retry-After"},
		{"api unexpected errors", func(g *gate) {
			a := goodAPI()
			a.ErrorsOther = 3
			g.gateAPI(a)
		}, hard, "3 requests failed"},
		{"api drain", func(g *gate) {
			a := goodAPI()
			a.DrainedCleanly = false
			g.gateAPI(a)
		}, hard, "drained_cleanly=false"},
		{"api sessions", func(g *gate) {
			a := goodAPI()
			a.Sessions = 50
			g.gateAPI(a)
		}, soft, "session load floor"},
		{"api queue p99", func(g *gate) {
			a := goodAPI()
			a.QueueP99NS = int64(6 * time.Second)
			g.gateAPI(a)
		}, soft, "queue-wait p99"},
		{"api e2e p99", func(g *gate) {
			a := goodAPI()
			a.LatencyP99NS = int64(31 * time.Second)
			g.gateAPI(a)
		}, soft, "end-to-end p99"},

		{"emst passes", func(g *gate) { g.gateEmst(goodEmst()) }, pass, "emst ok"},
		{"emst cut diverged", func(g *gate) {
			e := goodEmst()
			e.QueriesEqual = false
			g.gateEmst(e)
		}, hard, "queries_equal=false"},
		{"emst amortization", func(g *gate) {
			e := goodEmst()
			e.AmortizationRatio = 3
			g.gateEmst(e)
		}, soft, "sweep amortization"},

		{"ooc passes", func(g *gate) { g.gateOoc(goodOoc()) }, pass, "ooc ok"},
		{"ooc labels", func(g *gate) {
			o := goodOoc()
			o.LabelsPermEqual = false
			g.gateOoc(o)
		}, hard, "labels_perm_equal=false"},
		{"ooc dataset ratio", func(g *gate) {
			o := goodOoc()
			o.DatasetBytes = 8 << 20
			g.gateOoc(o)
		}, hard, "residency budget"},
		{"ooc peak window", func(g *gate) {
			o := goodOoc()
			o.PeakResidentBytes = 6 << 20
			g.gateOoc(o)
		}, hard, "peak mapped window"},
		{"ooc wall ratio", func(g *gate) {
			o := goodOoc()
			o.OOCWallNS = int64(10 * time.Second)
			g.gateOoc(o)
		}, soft, "soft ceiling"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		g := &gate{out: &buf}
		tc.run(g)
		got := pass
		switch {
		case g.hardFail:
			got = hard
		case g.regressed:
			got = soft
		}
		if got != tc.want {
			t.Errorf("%s: verdict %v, want %v; output:\n%s", tc.name, got, tc.want, buf.String())
			continue
		}
		if !strings.Contains(buf.String(), tc.msg) {
			t.Errorf("%s: output does not mention %q:\n%s", tc.name, tc.msg, buf.String())
		}
	}
}

// TestStrictEscalatesSoft: under -strict a soft regression is annotated as
// an error rather than a warning.
func TestStrictEscalatesSoft(t *testing.T) {
	var buf bytes.Buffer
	g := &gate{out: &buf, strict: true}
	e := goodEmst()
	e.AmortizationRatio = 3
	g.gateEmst(e)
	if !g.regressed || g.hardFail || !strings.HasPrefix(buf.String(), "::error ") {
		t.Fatalf("strict soft regression: regressed=%v hardFail=%v output %q", g.regressed, g.hardFail, buf.String())
	}
}
