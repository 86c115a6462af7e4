package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pdbscan"
	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
	"pdbscan/serve"
)

// Tiny sizes: every code path of the full workloads, in a fraction of a second.
var (
	tinyBatch  = batchParams{n: 4000, eps: 2, minPts: 10, warm: []int{5, 10, 20}, warmupN: 1000}
	tinyStream = streamParams{window: 3000, batch: 100, eps: 4, minPts: 10, minTicks: 5, maxTicks: 8}
	tinyParam  = paramParams{
		n: 5000, sweepEps: 60, minPts: 10, warm: []int{25, 50, 100},
		hierEps: 100, hierMinPts: 20, cuts: []float64{30, 60, 100}, warmupN: 1000,
	}
)

func tinyScenario(t *testing.T, name string, wrap func(http.Handler) http.Handler) scenario {
	t.Helper()
	var sc scenario
	var err error
	switch name {
	case "batch-http-2d":
		var b *batch
		b, err = newBatch(tinyBatch, 7)
		if b != nil {
			b.wrap = wrap
		}
		sc = b
	case "stream-http-2d":
		var s *stream
		s, err = newStream(tinyStream, 7)
		if s != nil {
			s.wrap = wrap
		}
		sc = s
	case "paramsearch-3d":
		sc, err = newParamsearch(tinyParam, 7)
	default:
		t.Fatalf("no tiny size for %s", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runTiny measures a tiny workload and returns its parsed result line.
func runTiny(t *testing.T, name string, trace bool, wrap func(http.Handler) http.Handler) result {
	t.Helper()
	var log bytes.Buffer
	rep, err := measure(name, tinyScenario(t, name, wrap), options{seed: 7, trace: trace}, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("result line %q: %v", out.String(), err)
	}
	if !trace {
		return res
	}
	if !strings.Contains(log.String(), "host: num_cpu=") {
		t.Errorf("%s: log does not record the host:\n%s", name, log.String())
	}
	return res
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, m.name, got.Unit, m.unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestTracedRunFillsItsLayers checks that each workload's traced run measures
// the layers on its path (a sample of them per workload).
func TestTracedRunFillsItsLayers(t *testing.T) {
	layers := map[string][]string{
		"batch-http-2d": {"client.encode_s", "serve.create_s", "serve.run_self_s", "engine.run_s",
			"pdbscan.prepare_s", "grid.build_s", "grid.neighbor_entries", "grid.shards", "core.mark_s", "core.clusters"},
		"stream-http-2d": {"client.decode_s", "serve.insert_s", "serve.window_s", "engine.run_s",
			"pdbscan.stream_run_s", "pdbscan.stream_cells"},
		"paramsearch-3d": {"pdbscan.new_clusterer_s", "pdbscan.run_s", "pdbscan.cut_s", "grid.neighbors_s",
			"core.collect_s", "core.coredist_s", "core.mst_edges", "runtime.alloc_bytes"},
	}
	for name, want := range layers {
		res := runTiny(t, name, true, nil)
		for _, m := range want {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: traced %s = %v, want > 0", name, m, res.Metrics[m].Value)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, spec []struct{ Name, Unit string }, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(spec), len(defs))
			return
		}
		for i, m := range spec {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// rewriteRuns wraps a handler so that every successful run response passes
// through edit before it reaches the client.
func rewriteRuns(edit func(*serve.RunStatus)) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != "POST" || !strings.HasSuffix(r.URL.Path, "/runs") {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var st serve.RunStatus
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &st) == nil && st.Result != nil {
				edit(&st)
				rec.Body.Reset()
				_ = json.NewEncoder(rec.Body).Encode(st)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		})
	}
}

func TestWrongLabelIsAFailure(t *testing.T) {
	// Move the first core point to another cluster.
	flip := rewriteRuns(func(st *serve.RunStatus) {
		r := st.Result
		for i, c := range r.Core {
			if c && r.NumClusters > 1 {
				r.Labels[i] = (r.Labels[i] + 1) % int32(r.NumClusters)
				return
			}
		}
	})
	for _, name := range []string{"batch-http-2d", "stream-http-2d"} {
		res := runTiny(t, name, false, flip)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a wrong label: correct=%v failed=%d, want the mismatch counted", name, res.Correct, res.Failed)
		}
	}

	// The in-process check that paramsearch-3d uses.
	pts := randomPoints(400, 2, 25, 1)
	res, err := pdbscan.ClusterFlat(pts.Data, pts.D, pdbscan.Config{Eps: 1.5, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := refOf(res)
	if err := checkResult(ref, res); err != nil {
		t.Fatalf("unchanged result: %v", err)
	}
	i := slices.Index(res.Core, true)
	if i < 0 || res.NumClusters < 2 {
		t.Fatalf("test data has %d clusters", res.NumClusters)
	}
	res.Labels[i] = (res.Labels[i] + 1) % int32(res.NumClusters)
	if checkResult(ref, res) == nil {
		t.Error("a wrong label passed the in-process check")
	}
}

func TestNon2xxIsAFailure(t *testing.T) {
	// Answer every timed warm run at minPts 20 with a 500.
	var refused atomic.Int64
	fail := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == "POST" && strings.HasSuffix(r.URL.Path, "/runs") {
				body, _ := io.ReadAll(r.Body)
				if strings.Contains(string(body), `"min_pts":20`) {
					refused.Add(1)
					http.Error(w, "injected", http.StatusInternalServerError)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	}
	res := runTiny(t, "batch-http-2d", false, fail)
	if refused.Load() == 0 {
		t.Fatal("no request was refused")
	}
	if res.Correct || int64(res.Failed) != refused.Load() {
		t.Errorf("correct=%v failed=%d, want the %d refused requests counted", res.Correct, res.Failed, refused.Load())
	}
}

// TestMembershipsMatchOracle checks the wire check's border derivation
// against the brute-force DBSCAN oracle.
func TestMembershipsMatchOracle(t *testing.T) {
	for _, d := range []int{2, 3} {
		pts := randomPoints(600, d, map[int]float64{2: 25, 3: 12}[d], int64(d))
		eps, minPts := 1.6, 5
		ref := metrics.BruteDBSCAN(pts, eps, minPts)
		labels := make([]int32, pts.N)
		for i, set := range ref.Clusters {
			labels[i] = -1
			if len(set) > 0 {
				labels[i] = int32(set[0])
			}
		}
		g, err := newPointGrid(pts.Data, d, eps)
		if err != nil {
			t.Fatal(err)
		}
		border := g.memberships(ref.Core, labels)
		for i, set := range ref.Clusters {
			if ref.Core[i] {
				continue
			}
			var got []int
			for _, c := range border[int32(i)] {
				got = append(got, int(c))
			}
			if !slices.Equal(got, set) {
				t.Fatalf("d=%d point %d: memberships %v, oracle %v", d, i, got, set)
			}
		}
		wire := &serve.ResultJSON{NumClusters: ref.NumClusters, Labels: labels, Core: ref.Core}
		if err := checkWire(ref, g, wire); err != nil {
			t.Errorf("d=%d: oracle result fails the wire check: %v", d, err)
		}
	}
}

// randomPoints returns n uniform points in a cube of the given side.
func randomPoints(n, d int, side float64, seed int64) geom.Points {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	for i := range data {
		data[i] = rng.Float64() * side
	}
	return geom.Points{N: n, D: d, Data: data}
}
