//go:build race

package sift

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of the items put back, so pooled scratch is reallocated at random.
const raceEnabled = true
