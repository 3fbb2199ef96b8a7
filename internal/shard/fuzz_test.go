package shard

import (
	"encoding/json"
	"testing"
)

// FuzzShardMapJSON: a shard-map document is bytes another process hands us.
// Decoding, validating and deriving its ring never panic or build an
// unbounded ring, and a document that validates yields a ring that routes
// every key to one of the document's slices.
func FuzzShardMapJSON(f *testing.F) {
	for _, m := range []Map{
		NewMap([][]string{{"http://a:9001"}, {"http://a:9002"}, {"http://a:9003"}}),
		{Version: MapVersion, Epoch: 7, Hash: HashName, VNodes: 16, Shards: []Member{
			{Index: 0, Addr: "http://a:9001", Replicas: []string{"http://a:9001", "http://b:9001"}},
			{Index: 1, Addr: "http://a:9002"}}},
	} {
		doc, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var m Map
		if json.Unmarshal(doc, &m) != nil {
			return
		}
		ring, err := m.Ring()
		if verr := m.Validate(); (verr == nil) != (err == nil) {
			t.Fatalf("Validate = %v but Ring = %v", verr, err)
		}
		if err != nil {
			return
		}
		for _, key := range []string{KeyForDomain("example.com"), KeyForFingerprint("00ff00ff00ff00ff"), "", string(doc)} {
			if idx := ring.Lookup(key); idx < 0 || idx >= len(m.Shards) {
				t.Fatalf("Lookup(%q) = %d with %d slices", key, idx, len(m.Shards))
			}
		}
	})
}
