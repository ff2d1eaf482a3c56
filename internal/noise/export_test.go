package noise

// SharedReference and NewSharedReference expose the test-only reference
// of shared_test.go to package noise_test, which imports faultmodel and
// loggopsim (both import noise).
type SharedReference = sharedReference

var NewSharedReference = newSharedReference
