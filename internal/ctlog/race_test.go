//go:build race

package ctlog

// Under -race, sync.Pool drops a quarter of what it is given, so a pooled
// object is sometimes rebuilt and allocation counts that rest on a pool
// are not the program's.
func init() { raceEnabled = true }
