// Package nasbench builds and serves tabular NAS benchmark artifacts: the
// architecture→reward map of a bounded sub-space, trained once and replayed
// forever (NAS-Bench-201's protocol, DESIGN.md §9).
//
// The package has three moving parts:
//
//   - BuildOrLoad (builder.go) enumerates a sub-space, trains every
//     architecture once through the evaluator in benchmark mode, journals
//     each finished record to a crash-consistent WAL (wal.go), finalizes the
//     records into the single immutable table artifact this file defines,
//     and returns the table; a finished artifact just loads.
//   - Table implements evaluator.RewardSource: plugged into a search via
//     search.RunReplay, it turns every reward estimation into a lookup
//     while leaving the virtual machine, the caches, and every RNG stream
//     byte-identical to a live run at the same BenchSeed.
//   - RunTournament (tournament.go) exploits the replay speed to run the
//     Li–Talwalkar reproducibility protocol: every strategy over a large
//     common seed set, reporting best-found-reward distributions.
package nasbench

import (
	"math"

	"nasgo/internal/ckpt"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
)

const (
	tableMagic   = "nasgotbl"
	tableVersion = 1

	// TableFile is the artifact BuildOrLoad writes under its directory.
	TableFile = "table.nasbench"
)

// Record is one tabulated architecture: the WAL entry the builder journals
// and the row the finalized table serves. Metric is the RAW validation
// metric trainReal produced — shaping and the non-finite failure path are
// re-applied by the replaying evaluator, so a replayed search is
// bit-identical to a live one. Nothing here may depend on the build
// timeline (no finish times): a resumed build must reproduce the
// uninterrupted build's bytes exactly.
type Record struct {
	// Index is the architecture's position in Space.ChoicesAt enumeration
	// order; records are contiguous from 0.
	Index int
	// Key is the architecture hash (space.Hash) the evaluator looks up.
	Key string
	// Metric is the raw validation metric (NaN/±Inf when the training
	// diverged — stored as-is; the replay failure path needs the real value).
	Metric float64
	// Failed marks an architecture that failed to compile; it has no metric
	// and a replaying search fails it before ever consulting the table.
	Failed bool
	// Err is the compile failure message (empty otherwise).
	Err string
	// Attempts is the execution attempt count (1; the builder trains on a
	// fault-free dedicated machine).
	Attempts int
	// Duration is the architecture's virtual task cost in seconds at paper
	// dimensions — what a search is charged per evaluation.
	Duration float64
}

// Meta binds a table to the exact training protocol that produced it.
type Meta struct {
	// Bench and Space name the benchmark and the tabulated sub-space.
	Bench string
	Space string
	// Size is the sub-space cardinality (= len(Records)).
	Size int
	// Eval is the binding subset of the build evaluator configuration (see
	// bindingConfig): the fields that decide reward values. A replaying
	// evaluator must run with these fields equal, BenchSeed above all.
	Eval evaluator.Config
}

// bindingConfig reduces an evaluator configuration to the fields that
// decide reward values in benchmark mode. Seed is irrelevant (BenchSeed
// replaces it), Workers/NoArena are wall-clock-only (rewards are pinned
// bitwise across them), GlobalCache changes cache policy not rewards, and
// the shaping weights are applied at replay time from the live config.
func bindingConfig(c evaluator.Config) evaluator.Config {
	return evaluator.Config{
		Fidelity:      c.Fidelity,
		Epochs:        c.Epochs,
		Timeout:       c.Timeout,
		RealBatchSize: c.RealBatchSize,
		RealEpochs:    c.RealEpochs,
		RealLR:        c.RealLR,
		BenchSeed:     c.BenchSeed,
	}
}

// Table is the immutable benchmark artifact: every architecture of a
// sub-space with its reward. It implements evaluator.RewardSource.
type Table struct {
	Meta    Meta
	Records []Record

	byKey map[string]int // built at load/finalize; not serialized
}

// Metric returns the stored raw metric for an architecture key. Compile-
// failed records are not tabulated metrics (a replaying evaluator fails
// them before the lookup), so they report ok=false.
func (t *Table) Metric(key string) (float64, bool) {
	i, ok := t.byKey[key]
	if !ok || t.Records[i].Failed {
		return 0, false
	}
	return t.Records[i].Metric, true
}

// Best returns the best finite tabulated metric and its key — the oracle a
// tournament's regret is measured against.
func (t *Table) Best() (key string, metric float64) {
	metric = math.Inf(-1)
	for _, r := range t.Records {
		if !r.Failed && !math.IsNaN(r.Metric) && !math.IsInf(r.Metric, 0) && r.Metric > metric {
			metric, key = r.Metric, r.Key
		}
	}
	return key, metric
}

func (t *Table) index() {
	t.byKey = make(map[string]int, len(t.Records))
	for i, r := range t.Records {
		t.byKey[r.Key] = i
	}
}

// validate holds the structural invariants a decoded table must satisfy;
// violations classify as corruption (the checksum passed, so the bytes were
// framed by something that was not a correct writer).
func (t *Table) validate() error {
	if t.Meta.Size != len(t.Records) {
		return corruptErr("table meta size %d != %d records", t.Meta.Size, len(t.Records))
	}
	for i, r := range t.Records {
		if !validRecord(i, r) {
			return corruptErr("table record %d is out of sequence or has no key: %+v", i, r)
		}
	}
	return nil
}

// WriteTableFS finalizes a table into the framed, checksummed, atomically
// renamed container at path. The payload is gob over slices and scalar
// structs only — no maps — so identical tables encode to identical bytes.
func WriteTableFS(fsys fsim.FS, path string, t *Table) error {
	if err := t.validate(); err != nil {
		return err
	}
	payload, err := gobEncode("table", t)
	if err != nil {
		return err
	}
	return ckpt.WriteFileFS(fsys, path, tableMagic, tableVersion, payload)
}

// ReadTableFS loads and validates a table artifact. Structural damage —
// torn bytes, checksum mismatches, undecodable or inconsistent payloads —
// wraps ckpt.ErrCorrupt; transient I/O keeps its errno for
// ckpt.IsTransient. A mis-decoded record is impossible: the container
// checksum guards the bytes and validate guards the structure.
func ReadTableFS(fsys fsim.FS, path string) (*Table, error) {
	payload, _, err := ckpt.ReadFileFS(fsys, path, tableMagic, tableVersion)
	if err != nil {
		return nil, err
	}
	t := &Table{}
	if err := gobDecode(payload, t); err != nil {
		return nil, corruptErr("table payload undecodable: %v", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	t.index()
	return t, nil
}

// validRecord is the WAL-unit check of a build journal (decodeUnits).
func validRecord(i int, r Record) bool { return r.Index == i && r.Key != "" }
