package experiments

import (
	"testing"

	"coarse/internal/runner"
)

// BenchmarkScaleCell* time one COARSE weak-scaling cell end to end —
// the workload class the fabric's steady-state fast-forward exists for
// (more than 99% of its reallocation passes are fast-forwarded; its
// fans are single transfers, so nothing aggregates). Every iteration must reproduce the pinned
// iteration time (the 1024-worker one is the weak-scaling row of
// testdata/scale.tables.golden), a cheap guard against timing a run
// that silently diverged. These benchmarks feed BENCH_core.json via
// `go run ./cmd/benchjson -set core`.

func BenchmarkScaleCell256(b *testing.B)  { benchScaleCell(b, 256, "124.211356ms") }
func BenchmarkScaleCell1024(b *testing.B) { benchScaleCell(b, 1024, "405.269951ms") }

func benchScaleCell(b *testing.B, workers int, want string) {
	spec := scaleSpec(Config{Quick: true}, workers, scaleShards, 4, "COARSE")
	spec.Key = "" // no result cache: each iteration must simulate
	for i := 0; i < b.N; i++ {
		res := runner.Run(spec)
		if !res.OK() {
			b.Fatalf("scale cell failed: %s", res.Err)
		}
		if got := res.Train.IterTime.String(); got != want {
			b.Fatalf("iteration time %s, pinned %s", got, want)
		}
	}
}
