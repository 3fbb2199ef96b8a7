package shard

// Pinned placements for TestRingPlacementPinned (ring shape 4 shards x 128
// vnodes). If a deliberate placement change invalidates these, bump Epoch
// (and HashName for a new hash) — existing stores and fleets must not
// silently re-partition.
const (
	ringPin0 = 0
	ringPin1 = 0
	ringPin2 = 3
	ringPin3 = 3
)
