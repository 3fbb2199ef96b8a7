package stalegw

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stalecert/internal/obs"
	"stalecert/internal/shard"
)

// Every -shards text the gateway refuses, and why; New refuses it too, which
// cmd/stalegw turns into exit 2. An empty entry is refused rather than
// dropped: dropping the middle of "a,,b" would renumber the ring.
func TestParseShardsRejects(t *testing.T) {
	tooMany := make([]string, 1<<20/shard.DefaultVNodes+1)
	for i := range tooMany {
		tooMany[i] = fmt.Sprintf("http://r%d.test", i)
	}
	for name, tc := range map[string]struct{ text, want string }{
		"no text":                 {"", "slice 0 is empty"},
		"empty middle slice":      {"http://a,,http://b", "slice 1 is empty"},
		"trailing comma":          {"http://a,http://b,", "slice 2 is empty"},
		"blank slice":             {"http://a, ", "slice 1 is empty"},
		"empty replica entry":     {"http://a||http://b", "slice 0 has an empty replica entry"},
		"trailing bar":            {"http://a,http://b|", "slice 1 has an empty replica entry"},
		"no scheme":               {"a:9001", "not a URL with a host"},
		"no host":                 {"http://", "not a URL with a host"},
		"bad URL":                 {"http://a b", "not a URL with a host"},
		"duplicate within slice":  {"http://a|http://a", "lists replica \"http://a\" twice"},
		"duplicate, trailing /":   {"http://a|http://a/", "twice"},
		"duplicate across slices": {"http://a|http://shared,http://shared|http://b", "serves both slice 0 and slice 1"},
		"ring refuses the count":  {strings.Join(tooMany, ","), "ring points"},
	} {
		groups, ring, err := parseShards(tc.text)
		if err == nil {
			t.Errorf("%s: %q accepted as %v", name, tc.text, groups)
			continue
		}
		if ring != nil || groups != nil {
			t.Errorf("%s: refused but returned a topology", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
		if _, err := New(Config{Shards: tc.text}); err == nil {
			t.Errorf("%s: New accepted %q", name, tc.text)
		}
	}
}

func TestParseShardsAccepts(t *testing.T) {
	groups, ring, err := parseShards(" http://a:9001/ | http://b:9001 ,http://c:9001")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || strings.Join(groups[0], " ") != "http://a:9001/ http://b:9001" ||
		strings.Join(groups[1], " ") != "http://c:9001" {
		t.Fatalf("groups = %q", groups)
	}
	if got, want := ring.Lookup(shard.KeyForDomain("example.com")), shard.MustRing(2, shard.DefaultVNodes).Lookup(shard.KeyForDomain("example.com")); got != want {
		t.Fatalf("ring places example.com on %d, a 2-slice ring on %d", got, want)
	}
}

// /v1/shardmap renders the -shards text as it always has: the addr-only form
// for a one-replica slice, addr plus replicas for more, addresses as written.
func TestGatewayShardmap(t *testing.T) {
	gw, err := New(Config{Shards: "http://a.test:9001/, http://b.test:9001|https://c.test:9001/x",
		Client: http.DefaultClient, Health: obs.NewHealth()})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shardmap", nil))
	const want = `{
  "version": 1,
  "epoch": 1,
  "hash": "fnv1a-splitmix64",
  "vnodes": 128,
  "shards": [
    {
      "index": 0,
      "addr": "http://a.test:9001/"
    },
    {
      "index": 1,
      "addr": "http://b.test:9001",
      "replicas": [
        "http://b.test:9001",
        "https://c.test:9001/x"
      ]
    }
  ]
}
`
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != obs.JSONContentType || rec.Body.String() != want {
		t.Fatalf("status %d, type %q, body:\n%s\nwant:\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body, want)
	}
}

// FuzzShards: the -shards text never panics the parser, and a text it
// accepts yields non-empty slices whose ring routes every key into range.
func FuzzShards(f *testing.F) {
	for _, seed := range []string{"http://a:9001", "http://a:9001|http://b:9001,http://a:9002|http://b:9002"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		groups, ring, err := parseShards(text)
		if err != nil {
			return
		}
		for i, g := range groups {
			if len(g) == 0 {
				t.Fatalf("slice %d of %q is empty", i, text)
			}
		}
		for _, key := range []string{shard.KeyForDomain("example.com"), shard.KeyForFingerprint("00ff00ff00ff00ff"), "", text} {
			if idx := ring.Lookup(key); idx < 0 || idx >= len(groups) {
				t.Fatalf("Lookup(%q) = %d with %d slices", key, idx, len(groups))
			}
		}
	})
}
