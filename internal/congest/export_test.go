package congest

// Builds returns how many round engines and fold program sets this
// process has built.
func Builds() (engines, foldPrograms int64) {
	return builds.engines.Load(), builds.foldPrograms.Load()
}
