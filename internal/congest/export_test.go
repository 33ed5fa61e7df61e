package congest

// Builds returns how many round engines and PA program sets this process
// has built.
func Builds() (engines, paPrograms int64) {
	return builds.engines.Load(), builds.paPrograms.Load()
}
