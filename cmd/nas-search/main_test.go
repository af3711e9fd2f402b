package main

import (
	"testing"

	"nasgo"
)

// TestTopRowsMarksCacheHits: TopK can represent an architecture by a cache
// hit, which ran no task; its row says so instead of printing a task time
// of 0.
func TestTopRowsMarksCacheHits(t *testing.T) {
	log := &nasgo.SearchLog{Results: []*nasgo.EvalResult{
		{Key: "a", Reward: 0.5, Params: 10, Cached: true, FinishTime: 30},
		{Key: "a", Reward: 0.5, Params: 10, Duration: 42, FinishTime: 72},
		{Key: "b", Reward: 0.4, Params: 20, Duration: 37, FinishTime: 80},
	}}
	rows := topRows(log.TopK(2))
	if len(rows) != 2 || rows[0][3] != "cached" || rows[1][3] != "37" {
		t.Fatalf("rows %q, want a's cached hit first, then b's 37 s", rows)
	}
}
