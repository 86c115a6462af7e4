package main

import (
	"fmt"
	"time"

	"pdbscan"
	"pdbscan/internal/benchreport"
)

// emstQuery is one eps of the sweep: the hierarchy cut vs a from-scratch run
// at the same radius.
type emstQuery struct {
	Eps         float64 `json:"eps"`
	Clusters    int     `json:"clusters"`
	CutNs       int64   `json:"cut_ns"`
	RunNs       int64   `json:"run_ns"`
	LabelsEqual bool    `json:"labels_equal"`
}

// expEmst measures the tentpole of the hierarchy subsystem: build the core
// distances and mutual-reachability EMST once, then answer a 16-eps sweep by
// CutEps replay, against 16 independent from-scratch runs. Every cut is
// cross-checked against its run (the same conformance the oracle suite pins)
// so the speedup cannot come from answering a different question.
func expEmst(o options) {
	const (
		name   = "ss-varden-2d"
		minPts = 10
		epsMax = 30.0
		sweeps = 16
	)
	pts := loadDataset(name, o.n, o.seed)
	fmt.Printf("EMST sweep: %s n=%d minPts=%d, %d eps in (0, %g]\n\n", name, pts.N, minPts, sweeps, epsMax)

	rep := benchreport.New("emst", effectiveThreads(o.threads), map[string]any{
		"dataset": name, "n": pts.N, "d": pts.D, "min_pts": minPts, "eps_max": epsMax, "seed": o.seed,
	})
	var queries []emstQuery
	// sweepNS is the build plus every cut; batchNS is the sum of the
	// independent runs, each paying its own eps-keyed grid construction,
	// exactly what a caller without the hierarchy would pay.
	var sweepNS, batchNS, queryMaxNS int64
	allEqual := true

	c, err := pdbscan.NewClustererFlat(pts.Data, pts.D, epsMax)
	if err != nil {
		fatalf("emst: %v", err)
	}
	start := time.Now()
	h, err := c.BuildHierarchy(minPts)
	if err != nil {
		fatalf("emst: BuildHierarchy: %v", err)
	}
	build := time.Since(start)
	fmt.Printf("build: %d MR-EMST edges in %v\n", h.NumEdges(), build.Round(time.Millisecond))

	tbl := newTable("hierarchy cut vs from-scratch run",
		"eps", "clusters", "cut", "run", "equal")
	for i := 1; i <= sweeps; i++ {
		eps := epsMax * float64(i) / sweeps
		start = time.Now()
		cut, err := h.CutEps(eps)
		if err != nil {
			fatalf("emst: CutEps(%g): %v", eps, err)
		}
		cutNs := time.Since(start).Nanoseconds()

		start = time.Now()
		cb, err := pdbscan.NewClustererFlat(pts.Data, pts.D, eps)
		if err != nil {
			fatalf("emst: %v", err)
		}
		run, err := cb.Run(pdbscan.Config{MinPts: minPts, Bucketing: true, Workers: o.threads})
		if err != nil {
			fatalf("emst: Run(eps=%g): %v", eps, err)
		}
		runNs := time.Since(start).Nanoseconds()

		equal := equivalentClusterings(cut, run)
		allEqual = allEqual && equal
		queries = append(queries, emstQuery{
			Eps: eps, Clusters: cut.NumClusters,
			CutNs: cutNs, RunNs: runNs, LabelsEqual: equal,
		})
		sweepNS += cutNs
		batchNS += runNs
		queryMaxNS = max(queryMaxNS, cutNs)
		tbl.add(fmt.Sprintf("%.4g", eps), fmt.Sprint(cut.NumClusters),
			fmtDur(time.Duration(cutNs)), fmtDur(time.Duration(runNs)),
			fmt.Sprint(equal))
	}
	tbl.print()

	queryAvgNS := sweepNS / sweeps
	sweepNS += build.Nanoseconds()
	amortization := float64(batchNS) / float64(sweepNS)

	start = time.Now()
	stable, err := h.ExtractStable(0)
	if err != nil {
		fatalf("emst: ExtractStable: %v", err)
	}
	extract := time.Since(start)

	fmt.Printf("\nsweep %v (build %v + %d cuts avg %v) vs batch %v: %.2fx amortization; all equal: %v\n",
		time.Duration(sweepNS).Round(time.Millisecond),
		build.Round(time.Millisecond), sweeps,
		time.Duration(queryAvgNS).Round(time.Microsecond),
		time.Duration(batchNS).Round(time.Millisecond),
		amortization, allEqual)
	fmt.Printf("ExtractStable: %d stable clusters in %v\n",
		stable.NumClusters, extract.Round(time.Millisecond))

	// amortization_ratio (batch over sweep) is the gated speedup of one
	// build plus cheap cuts; queries_equal is 1 when every cut was
	// label-permutation-equal to its from-scratch run (the oracle suite's
	// equivalence).
	rep.Metrics = map[string]float64{
		"num_edges":          float64(h.NumEdges()),
		"build_ns":           float64(build.Nanoseconds()),
		"sweep_ns":           float64(sweepNS),
		"batch_ns":           float64(batchNS),
		"query_avg_ns":       float64(queryAvgNS),
		"query_max_ns":       float64(queryMaxNS),
		"amortization_ratio": amortization,
		"queries_equal":      benchreport.Bool(allEqual),
		"extract_ns":         float64(extract.Nanoseconds()),
		"stable_clusters":    float64(stable.NumClusters),
	}
	rep.Rows["queries"] = queries
	writeReport(o, rep)
}

// equivalentClusterings reports whether two results describe the same
// clustering up to label permutation: identical core flags, a consistent
// core-label bijection, and per-point membership sets (primary label, or the
// full border membership list) equal under that bijection. Border points may
// take different primary labels on the two sides — a multi-membership border
// point's primary is a numbering artifact, not a clustering difference.
func equivalentClusterings(a, b *pdbscan.Result) bool {
	if len(a.Labels) != len(b.Labels) || a.NumClusters != b.NumClusters {
		return false
	}
	ab := make([]int32, a.NumClusters)
	ba := make([]int32, b.NumClusters)
	for i := range ab {
		ab[i] = -1
	}
	for i := range ba {
		ba[i] = -1
	}
	for i := range a.Labels {
		if a.Core[i] != b.Core[i] {
			return false
		}
		if !a.Core[i] {
			continue
		}
		la, lb := a.Labels[i], b.Labels[i]
		if ab[la] == -1 && ba[lb] == -1 {
			ab[la], ba[lb] = lb, la
		} else if ab[la] != lb || ba[lb] != la {
			return false
		}
	}
	memberships := func(r *pdbscan.Result, i int) []int32 {
		if m, ok := r.Border[int32(i)]; ok {
			return m
		}
		if r.Labels[i] < 0 {
			return nil
		}
		return []int32{r.Labels[i]}
	}
	for i := range a.Labels {
		ma, mb := memberships(a, i), memberships(b, i)
		if len(ma) != len(mb) {
			return false
		}
		set := make(map[int32]bool, len(ma))
		for _, l := range ma {
			set[ab[l]] = true
		}
		for _, l := range mb {
			if !set[l] {
				return false
			}
		}
	}
	return true
}
