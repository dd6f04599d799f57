package harness

import (
	"testing"

	"noblsm/internal/policy"
)

// The paper's figures live in virtual time, which is a pure function
// of the seed: any drift in these values is a semantics change (a
// different device charge, compaction schedule or journal cadence),
// never noise. Wall-clock optimisations — allocation cuts, zero-copy
// reads, lock changes — must leave every value below byte-identical.
//
// The op counts are the smallest at which every variant runs at the
// scaled geometry's normal pace; below them the scaled journal commit
// cadence outruns the device and NobLSM's runs slow down by orders of
// magnitude.
const (
	goldenFig4Ops     = 20000
	goldenFig5Records = 20000
	goldenFig5Ops     = 5000
	goldenSeed        = 1
)

// goldenFig4 is RunFig4(policy.All, 20000, 1024, 1, 1) in µs/op: the
// fillrandom column is Figure 4a; the read phases pin the block-load
// path (cache fills, readahead) to the same virtual charges.
var goldenFig4 = []struct {
	variant  policy.Variant
	workload string
	usPerOp  float64
}{
	{policy.LevelDB, "fillrandom", 28.845418449999997},
	{policy.LevelDB, "overwrite", 36.911423},
	{policy.LevelDB, "readseq", 0.54933175},
	{policy.LevelDB, "readrandom", 4.48260955},
	{policy.BoLT, "fillrandom", 24.557080600000003},
	{policy.BoLT, "overwrite", 28.2661478},
	{policy.BoLT, "readseq", 0.47921},
	{policy.BoLT, "readrandom", 4.445634},
	{policy.L2SM, "fillrandom", 29.4633881},
	{policy.L2SM, "overwrite", 48.765670150000005},
	{policy.L2SM, "readseq", 0.5846742},
	{policy.L2SM, "readrandom", 4.54871305},
	{policy.RocksDB, "fillrandom", 19.385925099999998},
	{policy.RocksDB, "overwrite", 24.92185995},
	{policy.RocksDB, "readseq", 0.55023675},
	{policy.RocksDB, "readrandom", 4.44629305},
	{policy.HyperLevelDB, "fillrandom", 29.840407449999997},
	{policy.HyperLevelDB, "overwrite", 38.58576035},
	{policy.HyperLevelDB, "readseq", 0.62909945},
	{policy.HyperLevelDB, "readrandom", 4.52906875},
	{policy.PebblesDB, "fillrandom", 16.5689412},
	{policy.PebblesDB, "overwrite", 17.7184405},
	{policy.PebblesDB, "readseq", 0.9296469999999999},
	{policy.PebblesDB, "readrandom", 4.81770135},
	{policy.NobLSM, "fillrandom", 15.87775165},
	{policy.NobLSM, "overwrite", 26.14896885},
	{policy.NobLSM, "readseq", 0.54933175},
	{policy.NobLSM, "readrandom", 4.8112255},
}

// goldenFig5bA is the YCSB-A phase of RunFig5(v, 20000, 5000, 1024,
// 4, 1) in µs/op: Figure 5b's four-thread write-heavy mix.
var goldenFig5bA = []struct {
	variant policy.Variant
	usPerOp float64
}{
	{policy.NobLSM, 45.4950936},
	{policy.LevelDB, 67.0722856},
}

func TestGoldenFig4(t *testing.T) {
	if raceEnabled {
		t.Skip("virtual figures are build-independent; the race build only slows this ~10 s test")
	}
	rows, err := RunFig4(policy.All, goldenFig4Ops, 1024, 1, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(goldenFig4) {
		t.Fatalf("RunFig4 returned %d rows, golden table has %d", len(rows), len(goldenFig4))
	}
	for i, want := range goldenFig4 {
		got := rows[i]
		if got.Variant != want.variant || got.Workload != want.workload {
			t.Fatalf("row %d is %s/%s, want %s/%s", i, got.Variant, got.Workload, want.variant, want.workload)
		}
		if got.Result.MicrosPerOp != want.usPerOp {
			t.Errorf("%s %s: %v µs/op, golden %v", want.variant, want.workload, got.Result.MicrosPerOp, want.usPerOp)
		}
	}
}

func TestGoldenFig5bYCSBA(t *testing.T) {
	if raceEnabled {
		t.Skip("virtual figures are build-independent; the race build only slows this test")
	}
	for _, want := range goldenFig5bA {
		rows, err := RunFig5(want.variant, goldenFig5Records, goldenFig5Ops, 1024, 4, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.Phase != "A" {
				continue
			}
			found = true
			if r.Result.MicrosPerOp != want.usPerOp {
				t.Errorf("%s YCSB-A: %v µs/op, golden %v", want.variant, r.Result.MicrosPerOp, want.usPerOp)
			}
		}
		if !found {
			t.Fatalf("%s: no YCSB-A row", want.variant)
		}
	}
}
