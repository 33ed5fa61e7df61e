// Package analyze is the planarvet analyzer suite: custom go/analysis
// analyzers that machine-check the invariants the repo's determinism and
// CONGEST-model contracts rest on. The headline guarantees — byte-identical
// inbox orderings and statistics across runs, trace identity across runs,
// certification verdict equivalence — are all
// statements about *reproducible execution*, and each has a class of Go
// code that silently breaks it:
//
//   - map iteration order leaking into message schedules, statistics or
//     trace output (mapiter),
//   - the shared global math/rand generator or wall-clock reads in library
//     code (rngwallclock),
//   - message payload types that smuggle unbounded data through the
//     O(log n)-bit CONGEST word interface (congestmsg),
//   - trace spans that are opened but never closed, corrupting the span
//     tree every exporter consumes (spanbalance).
//
// A second group machine-checks the flat-substrate contracts of the int32
// SoA/CSR layout and the engine registry:
//
//   - unchecked int→int32 narrowing in the substrate packages, where a
//     value past 2³¹ wraps silently into a valid-looking id (narrow32),
//   - allocation sites in functions declared allocation-free, each
//     annotation naming the AllocsPerRun test that enforces it at runtime
//     (noalloc),
//   - engine registration outside init, non-constant registry names,
//     duplicate names, and results that bypass cert validation
//     (registryinit),
//   - error identity comparisons and fmt.Errorf wrapping without %w,
//     which cut the errors.Is/As chain (errwrap).
//
// Every analyzer has a justification-comment escape hatch of the form
// //planarvet:<tag> <reason>, placed on the flagged line, the line above
// it, or (for declarations) in the doc comment. The reason is mandatory
// and machine-enforced: a directive with no reason is reported as a
// warning tree-wide by the analyzer owning its tag. An annotation is a
// reviewed claim that the invariant holds for a non-obvious reason, not a
// mute button.
//
// The suite is run by cmd/planarvet, which drives the analyzers through
// go vet's unitchecker protocol so the go command handles package loading,
// caching and test-variant packages.
package analyze

import (
	"golang.org/x/tools/go/analysis"

	"planardfs/internal/analyze/congestmsg"
	"planardfs/internal/analyze/errwrap"
	"planardfs/internal/analyze/mapiter"
	"planardfs/internal/analyze/narrow32"
	"planardfs/internal/analyze/noalloc"
	"planardfs/internal/analyze/registryinit"
	"planardfs/internal/analyze/rngwallclock"
	"planardfs/internal/analyze/spanbalance"
)

// All returns the full planarvet analyzer suite in registration order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mapiter.Analyzer,
		rngwallclock.Analyzer,
		congestmsg.Analyzer,
		spanbalance.Analyzer,
		narrow32.Analyzer,
		noalloc.Analyzer,
		registryinit.Analyzer,
		errwrap.Analyzer,
	}
}
