package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
)

func tableBody(ref string) []byte {
	return []byte(ref + ",a,b\n" + ref + "2,a,c\n")
}

// putTable parses and stores body as a table upload would, failing the
// test on a parse or persistence error (the latter impossible for the
// memory-only stores used here).
func putTable(t *testing.T, s *Store, body []byte) *StoredDataset {
	t.Helper()
	sd, err := parseUpload(Digest(body), KindTable, body)
	if err == nil {
		sd, err = s.put(body, sd)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sd
}

func TestStoreContentAddressing(t *testing.T) {
	s := NewStore(0, 0)
	body := tableBody("r")
	sd := putTable(t, s, body)
	if len(sd.Digest) != 64 {
		t.Fatalf("digest %q is not hex sha256", sd.Digest)
	}
	if sd.Rows != 2 || sd.Bytes != int64(len(body)) || sd.Kind != KindTable {
		t.Errorf("stored metadata = %+v", sd)
	}
	// Identical bytes address the same entry (idempotent re-upload).
	again := putTable(t, s, body)
	if again.Digest != sd.Digest {
		t.Error("identical upload produced a different digest")
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Errorf("re-upload duplicated the entry: %+v", st)
	}
	got, ok := s.Get(sd.Digest)
	if !ok || got.Table.Len() != 2 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get("feedbeef"); ok {
		t.Error("unknown digest must miss")
	}
	// A scene upload is distinguishable by kind.
	scene := dataset.PortoAlegreScene()
	sceneBody := []byte("scene-bytes")
	ssd, err := s.PutScene(sceneBody, scene)
	if err != nil {
		t.Fatal(err)
	}
	if ssd.Kind != KindScene || ssd.Rows != scene.Reference.Len() {
		t.Errorf("scene metadata = %+v", ssd)
	}
}

func TestStoreLRUEvictionByEntries(t *testing.T) {
	s := NewStore(2, 0)
	bodies := [][]byte{tableBody("a"), tableBody("b"), tableBody("c")}
	var digests []string
	for _, b := range bodies {
		digests = append(digests, putTable(t, s, b).Digest)
	}
	if st := s.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	if _, ok := s.Get(digests[0]); ok {
		t.Error("oldest entry must have been evicted")
	}
	for _, d := range digests[1:] {
		if _, ok := s.Get(d); !ok {
			t.Errorf("digest %s evicted unexpectedly", d[:8])
		}
	}
	// Touching an entry protects it from the next eviction.
	s.Get(digests[1])
	b := tableBody("d")
	putTable(t, s, b)
	if _, ok := s.Get(digests[1]); !ok {
		t.Error("recently used entry was evicted ahead of the older one")
	}
	if _, ok := s.Get(digests[2]); ok {
		t.Error("least recently used entry survived")
	}
}

func TestStoreLRUEvictionByBytes(t *testing.T) {
	small := tableBody("aa") // distinct bodies, equal length
	other := tableBody("bb")
	s := NewStore(0, int64(len(small)+len(other)))
	putTable(t, s, small)
	putTable(t, s, other)
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("under the byte cap, no eviction expected: %+v", st)
	}
	third := tableBody("cc")
	putTable(t, s, third)
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes > int64(len(small)+len(other)) {
		t.Errorf("byte cap not enforced: %+v", st)
	}
}

func TestCacheKeyCanonicalisation(t *testing.T) {
	base := core.Config{Algorithm: core.AlgAprioriKC, MinSupport: 0.5}
	a := base
	a.Dependencies = []mining.Pair{{A: "x", B: "y"}, {A: "q", B: "p"}}
	b := base
	b.Dependencies = []mining.Pair{{A: "p", B: "q"}, {A: "y", B: "x"}, {A: "x", B: "y"}}

	ka, err := CacheKey("d", a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := CacheKey("d", b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("equivalent Φ sets keyed differently:\n  %s\n  %s", ka, kb)
	}
	// Different minsup must key differently.
	c := base
	c.MinSupport = 0.4
	kc, _ := CacheKey("d", c)
	if kc == ka {
		t.Error("different configs share a key")
	}
	// Different dataset digests must key differently.
	kd, _ := CacheKey("e", base)
	ke, _ := CacheKey("d", base)
	if kd == ke {
		t.Error("different datasets share a key")
	}
}

func TestResultCacheCountersAndEviction(t *testing.T) {
	c := NewResultCache(2)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k1", &MineResponse{Algorithm: "apriori"})
	c.Put("k2", &MineResponse{})
	got, ok := c.Get("k1") // bumps k1 ahead of k2
	if !ok || !got.Cached {
		t.Fatalf("cached response = %+v, %v (Cached flag must be set on hits)", got, ok)
	}
	c.Put("k3", &MineResponse{}) // over the cap of 2: evicts k2, the LRU
	if _, ok := c.Get("k2"); ok {
		t.Error("least recently used entry must be evicted")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Error("recently hit entry was evicted")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}
