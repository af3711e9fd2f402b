package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// -compare holds a new ledger against an old one of the same seed, scale and
// run length:
//
//   - where either side's own spread is wider than the metric's
//     BENCHMARK.json bound, or a side has one sample and the medians differ
//     by more than the bound, the metric is unresolved — neither unchanged
//     nor a regression — unless every new sample beats every old one;
//   - otherwise a median worse than the old one by more than the bound is a
//     REGRESSION; for setup_s it must also be worse by more than 0.25 s;
//   - count-type layer metrics are compared exactly, layer timings are
//     reported with their change and never fail the comparison;
//   - more failed operations than before fails it.
//
// The exit code is non-zero on a regression or a failed_frac increase, and
// — between two runs of one commit (-repeat) — on any changed count.

func loadLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, this build reads %q", path, l.Schema, ledgerSchema)
	}
	return &l, nil
}

func compareFiles(c *contract, oldPath, newPath string) int {
	old, err := loadLedger(oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadLedger(newPath)
	if err != nil {
		fatal(err)
	}
	return compareLedgers(c, old, cur, false)
}

func (r *result) metric(name string) (Metric, bool) {
	if r == nil {
		return Metric{}, false
	}
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func (r *result) failedFrac() float64 {
	if r == nil || r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// samplesOf is the metric's kept samples, or its value alone.
func samplesOf(m Metric) []float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []float64{m.Value}
}

// worseBy is how much worse cur is than old as a share of old, in the
// metric's own direction; negative when it is better.
func worseBy(spec metricSpec, old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (old - cur) / old
	}
	return (cur - old) / old
}

// allBetter reports whether every new sample beats every old one.
func allBetter(spec metricSpec, old, cur []float64) bool {
	for _, o := range old {
		for _, n := range cur {
			if worseBy(spec, o, n) >= 0 {
				return false
			}
		}
	}
	return true
}

// setupFloorS is the absolute part of the set-up rule: set-up that is worse
// by no more than this is not a regression however large the share, which
// is what keeps a 50 ms set-up from failing on 15 ms of scheduler noise.
const setupFloorS = 0.25

// verdict classifies one end-to-end cell.
func verdict(spec metricSpec, old, cur Metric) string {
	worse := worseBy(spec, old.Value, cur.Value)
	so, sn := samplesOf(old), samplesOf(cur)
	single := min(len(so), len(sn)) < 2
	switch {
	case max(spread(so), spread(sn)) > spec.Bound, single && math.Abs(worse) > spec.Bound:
		if !single && allBetter(spec, so, sn) {
			return "improved"
		}
		return "unresolved"
	case worse > spec.Bound && (spec.Name != "setup_s" || cur.Value-old.Value > setupFloorS):
		return "REGRESSION"
	case worse < -spec.Bound:
		return "improved"
	}
	return "unchanged"
}

// exact reports whether a layer metric is a count the program determines,
// which two runs of one commit must reproduce to the digit.
func exact(spec metricSpec) bool {
	return spec.Unit == "count" || spec.Unit == "B" || spec.Name == "fsim.write_kb_per_op"
}

func compareLedgers(c *contract, old, cur *ledger, sameCommit bool) int {
	code := 0
	fmt.Printf("compare: %s (%s) -> %s (%s), seed %d, %s scale, %g s\n",
		old.Env.Commit, old.Env.CPUModel, cur.Env.Commit, cur.Env.CPUModel, old.Seed, old.Scale, old.Seconds)
	if old.Seed != cur.Seed || old.Scale != cur.Scale || old.Seconds != cur.Seconds {
		fmt.Printf("compare: the new ledger ran seed %d, %s scale, %g s: different work, nothing to compare\n",
			cur.Seed, cur.Scale, cur.Seconds)
		return 2
	}
	byName := map[string]ledgerWorkload{}
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	for _, ow := range old.Workloads {
		nw, ok := byName[ow.Name]
		if !ok {
			fmt.Printf("%-18s missing from the new ledger\n", ow.Name)
			code = 1
			continue
		}
		for _, spec := range c.EndToEnd {
			om, ok1 := ow.EndToEnd.metric(spec.Name)
			nm, ok2 := nw.EndToEnd.metric(spec.Name)
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(spec, om, nm)
			if v == "REGRESSION" {
				code = 1
			}
			fmt.Printf("%-18s %-36s %12.6g -> %12.6g %-6s %+7.1f%% (bound %2.0f%%, spread %4.1f%%/%4.1f%%, n %d/%d) %s\n",
				ow.Name, spec.Name, om.Value, nm.Value, spec.Unit, 100*(nm.Value-om.Value)/om.Value,
				100*spec.Bound, 100*spread(samplesOf(om)), 100*spread(samplesOf(nm)), om.N, nm.N, v)
		}
		for _, pass := range [][2]*result{{ow.EndToEnd, nw.EndToEnd}, {ow.PerLayer, nw.PerLayer}} {
			if pass[0] == nil || pass[1] == nil {
				continue
			}
			if of, nf := pass[0].failedFrac(), pass[1].failedFrac(); nf > of {
				fmt.Printf("%-18s failed_frac %.4g -> %.4g FAILED\n", ow.Name, of, nf)
				code = 1
			}
		}
		if ow.PerLayer == nil || nw.PerLayer == nil {
			continue
		}
		for _, spec := range c.PerLayer {
			om, ok1 := ow.PerLayer.metric(spec.Name)
			nm, ok2 := nw.PerLayer.metric(spec.Name)
			if !ok1 || !ok2 || (om.Value == 0 && nm.Value == 0) {
				continue
			}
			note := ""
			switch {
			case exact(spec) && om.Value == nm.Value:
				note = "same"
			case exact(spec):
				note = "CHANGED"
				if sameCommit {
					code = 1
				}
			case om.Value != 0:
				note = fmt.Sprintf("%+.1f%%", 100*(nm.Value-om.Value)/om.Value)
			}
			fmt.Printf("%-18s %-36s %12.6g -> %12.6g %-8s %s\n", ow.Name, spec.Name, om.Value, nm.Value, spec.Unit, note)
		}
	}
	if code == 0 {
		fmt.Println("compare: no regression")
	} else {
		fmt.Println("compare: FAILED")
	}
	return code
}
