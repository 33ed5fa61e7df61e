package separator

// VirtualCopies returns how many configurations Phase 5 has copied for
// Phase 4 in this process.
func VirtualCopies() int64 { return virtualCopies.Load() }
