package cert

// Builds returns how many Verifiers NewVerifier has made in this process,
// and how many BFS trees and label-exchange program sets they have built.
func Builds() (verifiers, trees, exchanges int64) {
	return builds.verifiers.Load(), builds.trees.Load(), builds.exchanges.Load()
}

// Runs returns how many label exchanges and folds Verifiers have run in
// this process.
func Runs() (exchanges, folds int64) {
	return runs.exchanges.Load(), runs.folds.Load()
}
