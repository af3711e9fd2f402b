package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/nasbench"
	"nasgo/internal/report"
)

// TournamentDir is where the tournament experiment keeps its durable
// artifacts: the tabulated reward table (built once, reused forever) and
// the per-configuration tournament results. bench_results/ keeps it next
// to the campaign outputs; a killed run resumes from the WAL inside.
var TournamentDir = filepath.Join("bench_results", "nasbench")

// TournamentResult is the strategy-tournament experiment (DESIGN.md §9):
// the Li–Talwalkar reproducibility protocol on the tabulated combo-micro
// sub-space — every strategy over the same large seed set, best-found
// rewards served from the table so thousands of searches cost minutes.
type TournamentResult struct {
	Board []nasbench.StrategySummary
	// Strategies×Seeds searches total; OracleKey/OracleReward are the
	// table's global optimum the Oracle column counts hits on.
	Seeds, Runs  int
	OracleReward float64
	// TableSize is the tabulated sub-space cardinality; Digest the
	// tournament determinism digest. Neither depends on whether this
	// invocation built the table or found it, so the report is a pin.
	TableSize int
	Digest    string
}

// tournamentSeeds maps a scale preset to the common seed-set size:
// 200 per replication lands the default preset on the headline 1000
// seeds per strategy while keeping the quick preset bench-friendly.
func tournamentSeeds(sc Scale) int { return 200 * sc.Replications }

// Tournament builds (or loads) the combo-micro reward table and runs the
// four-strategy tournament over it. Both phases are crash-consistent under
// TournamentDir: kill it at any point and the next invocation resumes
// after the last durable record/run.
func Tournament(sc Scale) *TournamentResult {
	bench := candle.NewCombo(candle.Config{Seed: sc.Seed})
	sp := nasbench.ComboMicro()
	tbl, _, err := nasbench.BuildOrLoad(nasbench.BuildConfig{
		Bench: bench,
		Space: sp,
		Eval:  evaluator.Config{BenchSeed: sc.Seed},
		Dir:   filepath.Join(TournamentDir, "combo-micro"),
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: tournament table: %v", err))
	}
	seeds := tournamentSeeds(sc)
	tour, err := nasbench.RunTournament(nasbench.TournamentConfig{
		Bench: bench,
		Space: sp,
		Table: tbl,
		Seeds: seeds,
		Dir:   filepath.Join(TournamentDir, fmt.Sprintf("tournament-%d", seeds)),
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: tournament: %v", err))
	}
	_, oracle := tbl.Best()
	return &TournamentResult{
		Board:        tour.Leaderboard(tbl),
		Seeds:        seeds,
		Runs:         len(tour.Runs),
		OracleReward: oracle,
		TableSize:    tbl.Meta.Size,
		Digest:       tour.Digest,
	}
}

// Render prints the leaderboard: one row per strategy with its best-found
// reward distribution over the common seed set.
func (r *TournamentResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Strategy tournament — %d seeds × %d strategies on the tabulated combo-micro space (%d archs, oracle reward %.4f)\n",
		r.Seeds, len(r.Board), r.TableSize, r.OracleReward)
	rows := make([][]string, 0, len(r.Board))
	for _, s := range r.Board {
		rows = append(rows, []string{
			s.Strategy,
			report.F(s.Min), report.F(s.P25), report.F(s.Median), report.F(s.P75), report.F(s.Max),
			report.F(s.Mean),
			fmt.Sprintf("%d", s.Wins),
			fmt.Sprintf("%d", s.Oracle),
			fmt.Sprintf("%d", s.Converged),
			fmt.Sprintf("%.1f", s.MeanEvals),
		})
	}
	b.WriteString(report.Table(
		[]string{"strategy", "min", "p25", "median", "p75", "max", "mean", "wins", "oracle", "conv", "evals"},
		rows))
	fmt.Fprintf(&b, "runs: %d; digest: %s\n", r.Runs, r.Digest)
	return b.String()
}
