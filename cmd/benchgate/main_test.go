package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pdbscan/internal/benchreport"
)

func envelope(exp string, metrics map[string]float64) *benchreport.Report {
	return &benchreport.Report{
		Experiment: exp,
		Host:       benchreport.Host{NumCPU: 4, GOMAXPROCS: 4, Threads: 1},
		Metrics:    metrics,
	}
}

// goodReports returns one passing report per gated experiment; each case of
// TestGatesFire regresses one metric of a fresh copy.
func goodReports() map[string]*benchreport.Report {
	return map[string]*benchreport.Report{
		"hot": envelope("hot", map[string]float64{
			"headline_2d_grid_speedup": 2.0, "headline_alloc_ratio": 100,
		}),
		"scale": envelope("scale", map[string]float64{
			"thread_counts": 3, "top_self_speedup": 3.0, "sampled_rows": 6,
			"sampled_accurate_rows.ss-varden-2d": 3, "sampled_accurate_rows.ss-varden-3d": 3,
			"sampled_best_speedup.ss-varden-2d": 2.9, "sampled_best_speedup.ss-varden-3d": 2.4,
		}),
		"serve": envelope("serve", map[string]float64{
			"recovered_equal": 1, "budget_conformant": 1,
			"cancel_latency_max_ns": float64(5 * time.Millisecond), "cancelled_mid_cluster": 5,
		}),
		"api": envelope("api", map[string]float64{
			"budget_conformant": 1, "retry_after_always": 1, "errors_other": 0, "drained_cleanly": 1,
			"sessions": 200, "queue_p99_ns": float64(50 * time.Millisecond), "latency_p99_ns": float64(time.Second),
		}),
		"emst": envelope("emst", map[string]float64{"queries_equal": 1, "amortization_ratio": 8}),
		"ooc": envelope("ooc", map[string]float64{
			"labels_perm_equal": 1, "dataset_budget_ratio": 4, "peak_window_ratio": 0.75, "wall_ratio": 2,
		}),
	}
}

type verdict int

const (
	pass verdict = iota
	soft         // warning (an error only under -strict)
	hard         // correctness invariant, always an error
)

func (v verdict) String() string { return [...]string{"pass", "soft", "hard"}[v] }

func (g *gate) verdict() verdict {
	switch {
	case g.hardFail:
		return hard
	case g.regressed:
		return soft
	}
	return pass
}

// gateCase checks one report of experiment exp, edited from its good
// version; base, when set, edits a good copy used as the baseline.
type gateCase struct {
	name string
	exp  string
	edit func(r *benchreport.Report)
	base func(b *benchreport.Report)
	want verdict
	msg  string // substring the output must contain
	// rule is the table entry the case fires, as metric (+ "@baseline" for a
	// vs-baseline rule); empty for pass and skip cases.
	rule string
}

func (tc gateCase) run() (verdict, string) {
	reports, bases := goodReports(), goodReports()
	r := reports[tc.exp]
	if tc.edit != nil {
		tc.edit(r)
	}
	var base *benchreport.Report
	if tc.base != nil {
		base = bases[tc.exp]
		tc.base(base)
	}
	var buf bytes.Buffer
	g := &gate{out: &buf}
	g.check(r, base)
	return g.verdict(), buf.String()
}

func set(key string, v float64) func(r *benchreport.Report) {
	return func(r *benchreport.Report) { r.Metrics[key] = v }
}

// TestGatesFire feeds every rule of the table a synthetic report with its
// metric regressed and checks it fires at the rule's severity and names the
// metric and the bound; the good reports must pass, so a rule that fires on
// everything fails too. Every rule must have a case.
func TestGatesFire(t *testing.T) {
	cases := []gateCase{
		{name: "hot passes", exp: "hot", base: func(*benchreport.Report) {}, want: pass, msg: "hot ok (4 checks)"},
		{name: "hot speedup floor", exp: "hot", edit: set("headline_2d_grid_speedup", 1.16), want: soft, rule: "headline_2d_grid_speedup"},
		{name: "hot alloc floor", exp: "hot", edit: set("headline_alloc_ratio", 4.4), want: soft, rule: "headline_alloc_ratio"},
		{name: "hot speedup below baseline", exp: "hot", edit: set("headline_2d_grid_speedup", 1.6), // above the floor
			base: func(*benchreport.Report) {}, want: soft, rule: "headline_2d_grid_speedup@baseline"},
		{name: "hot alloc below baseline", exp: "hot", edit: set("headline_alloc_ratio", 80),
			base: func(*benchreport.Report) {}, want: soft, rule: "headline_alloc_ratio@baseline"},
		{name: "hot thread-mismatched baseline refused", exp: "hot", edit: set("headline_2d_grid_speedup", 1.6),
			base: func(b *benchreport.Report) { b.Host.Threads = 4 }, want: pass, msg: "not comparable"},
		{name: "hot missing gated metric", exp: "hot", edit: func(r *benchreport.Report) { delete(r.Metrics, "headline_alloc_ratio") },
			want: hard, msg: "lacks metric headline_alloc_ratio"},

		{name: "scale passes", exp: "scale", want: pass, msg: "scale ok (7 checks)"},
		{name: "scale single worker count", exp: "scale", edit: set("thread_counts", 1), want: hard, rule: "thread_counts"},
		{name: "scale self-speedup floor", exp: "scale", edit: set("top_self_speedup", 1.3), want: soft, rule: "top_self_speedup"},
		{name: "scale floor skipped on one CPU", exp: "scale", edit: func(r *benchreport.Report) {
			r.Host.NumCPU, r.Metrics["top_self_speedup"] = 1, 1.0
		}, want: pass, msg: "not applicable"},
		{name: "scale skipped rule still needs its metric", exp: "scale", edit: func(r *benchreport.Report) {
			r.Host.NumCPU = 1
			delete(r.Metrics, "top_self_speedup")
		}, want: hard, msg: "lacks metric top_self_speedup"},
		{name: "scale no sampled rows", exp: "scale", edit: set("sampled_rows", 0), want: hard, rule: "sampled_rows"},
		{name: "scale sampled ARI", exp: "scale", edit: func(r *benchreport.Report) {
			r.Metrics["sampled_accurate_rows.ss-varden-3d"] = 0
			delete(r.Metrics, "sampled_best_speedup.ss-varden-3d") // no accurate row, no best speedup
		}, want: hard, msg: "sampled_accurate_rows.ss-varden-3d", rule: "sampled_accurate_rows"},
		{name: "scale sampled speedup", exp: "scale", edit: set("sampled_best_speedup.ss-varden-2d", 1.7),
			want: soft, msg: "sampled_best_speedup.ss-varden-2d", rule: "sampled_best_speedup"},
		{name: "scale prefix matches no key", exp: "scale", edit: func(r *benchreport.Report) {
			delete(r.Metrics, "sampled_best_speedup.ss-varden-2d")
			delete(r.Metrics, "sampled_best_speedup.ss-varden-3d")
		}, want: hard, msg: "lacks metric sampled_best_speedup"},

		{name: "serve passes", exp: "serve", want: pass, msg: "serve ok (3 checks)"},
		{name: "serve recovery", exp: "serve", edit: set("recovered_equal", 0), want: hard, rule: "recovered_equal"},
		{name: "serve budget", exp: "serve", edit: set("budget_conformant", 0), want: hard, rule: "budget_conformant"},
		{name: "serve cancel latency", exp: "serve", edit: set("cancel_latency_max_ns", float64(51*time.Millisecond)),
			want: soft, msg: "51ms", rule: "cancel_latency_max_ns"},
		{name: "serve no mid-run cancel skips latency", exp: "serve", edit: func(r *benchreport.Report) {
			r.Metrics["cancelled_mid_cluster"], r.Metrics["cancel_latency_max_ns"] = 0, float64(80*time.Millisecond)
		}, want: pass, msg: "not exercised"},

		{name: "api passes", exp: "api", want: pass, msg: "api ok (7 checks)"},
		{name: "api budget", exp: "api", edit: set("budget_conformant", 0), want: hard, rule: "budget_conformant"},
		{name: "api retry-after", exp: "api", edit: set("retry_after_always", 0), want: hard, rule: "retry_after_always"},
		{name: "api unexpected errors", exp: "api", edit: set("errors_other", 3), want: hard, rule: "errors_other"},
		{name: "api drain", exp: "api", edit: set("drained_cleanly", 0), want: hard, rule: "drained_cleanly"},
		{name: "api sessions", exp: "api", edit: set("sessions", 199), want: soft, rule: "sessions"},
		{name: "api queue p99", exp: "api", edit: set("queue_p99_ns", float64(6*time.Second)), want: soft, rule: "queue_p99_ns"},
		{name: "api e2e p99", exp: "api", edit: set("latency_p99_ns", float64(31*time.Second)), want: soft, rule: "latency_p99_ns"},

		{name: "emst passes", exp: "emst", want: pass, msg: "emst ok (2 checks)"},
		{name: "emst cut diverged", exp: "emst", edit: set("queries_equal", 0), want: hard, rule: "queries_equal"},
		{name: "emst amortization", exp: "emst", edit: set("amortization_ratio", 4.4), want: soft, rule: "amortization_ratio"},

		{name: "ooc passes", exp: "ooc", want: pass, msg: "ooc ok (4 checks)"},
		{name: "ooc labels", exp: "ooc", edit: set("labels_perm_equal", 0), want: hard, rule: "labels_perm_equal"},
		{name: "ooc dataset ratio", exp: "ooc", edit: set("dataset_budget_ratio", 3.9), want: hard, rule: "dataset_budget_ratio"},
		{name: "ooc peak window", exp: "ooc", edit: set("peak_window_ratio", 1.3), want: hard, rule: "peak_window_ratio"},
		{name: "ooc wall ratio", exp: "ooc", edit: set("wall_ratio", 8.5), want: soft, rule: "wall_ratio"},
	}
	covered := make([]bool, len(rules))
	for _, tc := range cases {
		msg := tc.msg
		var ru *rule
		if tc.rule != "" {
			metric, vsBase, _ := strings.Cut(tc.rule, "@")
			for i := range rules {
				if rules[i].experiment == tc.exp && rules[i].metric == metric && rules[i].vsBaseline == (vsBase == "baseline") {
					ru, covered[i] = &rules[i], true
				}
			}
			if ru == nil {
				t.Errorf("%s: no rule %s %s in the table", tc.name, tc.exp, tc.rule)
				continue
			}
			if want := map[bool]verdict{false: soft, true: hard}[ru.hard]; want != tc.want {
				t.Errorf("%s: rule severity is %v, case expects %v", tc.name, want, tc.want)
			}
		}
		got, out := tc.run()
		if got != tc.want {
			t.Errorf("%s: verdict %v, want %v; output:\n%s", tc.name, got, tc.want, out)
			continue
		}
		if ru != nil && !(strings.Contains(out, ru.metric) && strings.Contains(out, ru.what)) {
			t.Errorf("%s: output does not name %s and %q:\n%s", tc.name, ru.metric, ru.what, out)
		}
		if !strings.Contains(out, msg) {
			t.Errorf("%s: output does not mention %q:\n%s", tc.name, msg, out)
		}
	}
	for i, ok := range covered {
		if !ok {
			t.Errorf("rule %s %s (vsBaseline %v) has no case", rules[i].experiment, rules[i].metric, rules[i].vsBaseline)
		}
	}
}

// TestStrictEscalatesSoft: under -strict a soft regression is annotated as
// an error rather than a warning.
func TestStrictEscalatesSoft(t *testing.T) {
	var buf bytes.Buffer
	g := &gate{out: &buf, strict: true}
	e := goodReports()["emst"]
	e.Metrics["amortization_ratio"] = 3
	g.check(e, nil)
	if !g.regressed || g.hardFail || !strings.HasPrefix(buf.String(), "::error ") {
		t.Fatalf("strict soft regression: regressed=%v hardFail=%v output %q", g.regressed, g.hardFail, buf.String())
	}
}

// TestRunFiles: a missing report or baseline is a notice and is skipped; a
// report that is not an envelope is a hard error.
func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "BENCH_emst.json")
	if err := benchreport.Write(good, goodReports()["emst"]); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "BENCH_old.json")
	if err := os.WriteFile(old, []byte(`{"n": 100000, "amortization_ratio": 8, "queries_equal": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	absent := filepath.Join(dir, "BENCH_absent.json")
	for _, tc := range []struct {
		base  string
		paths []string
		want  verdict
		msg   string
	}{
		{"", []string{good, absent}, pass, "BENCH_absent.json not found; gate skipped"},
		{absent, []string{good}, pass, "no usable baseline"},
		{"", []string{old, good}, hard, "BENCH_old.json: not a bench report"},
	} {
		var buf bytes.Buffer
		g := &gate{out: &buf}
		g.run(tc.base, tc.paths)
		if got := g.verdict(); got != tc.want || !strings.Contains(buf.String(), tc.msg) {
			t.Errorf("run(%q, %v): verdict %v, want %v mentioning %q; output:\n%s", tc.base, tc.paths, got, tc.want, tc.msg, buf.String())
		}
	}
}

// TestCommittedReports: every committed BENCH_*.json is an envelope and
// passes the rule table (the hot report against itself as the baseline), and
// every gated experiment has a committed report.
func TestCommittedReports(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		r, err := benchreport.Read(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		seen[r.Experiment] = true
		var buf bytes.Buffer
		g := &gate{out: &buf, strict: true}
		g.check(r, r)
		if got := g.verdict(); got != pass {
			t.Errorf("%s: verdict %v; output:\n%s", path, got, buf.String())
		}
	}
	for _, ru := range rules {
		if !seen[ru.experiment] {
			t.Errorf("no committed report for gated experiment %q", ru.experiment)
			seen[ru.experiment] = true // report each experiment once
		}
	}
}
