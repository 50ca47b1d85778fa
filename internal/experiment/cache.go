package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"mpicollperf/internal/cluster"
)

// This file is the measurement cache: content-addressed keys covering the
// complete experiment identity, an in-memory store sharded to stay off
// the sweep workers' critical path, and an optional JSON-file disk layer.

// cacheKeyBlob is the canonical serialisation hashed into a cache key. It
// spells out every input that determines a measurement — the full cluster
// profile (including the simulator's noise seed), the normalised
// measurement settings, and the point (its stage by name and timing
// mode) — so any change to any of them produces a different key.
type cacheKeyBlob struct {
	Version  int
	Profile  cluster.Profile
	Settings Settings
	Stage    string
	Mode     Mode
	Procs    int
	MsgBytes int
	SegSize  int
}

// cacheKeyVersion invalidates every existing cache entry when the
// measurement methodology, the simulator's timing model or the key blob
// changes incompatibly; bump it on such changes.
const cacheKeyVersion = 2

func cacheKey(pr cluster.Profile, pt Point, set Settings) string {
	blob, err := json.Marshal(cacheKeyBlob{
		Version:  cacheKeyVersion,
		Profile:  pr,
		Settings: set.withDefaults(),
		Stage:    pt.Stage.Name,
		Mode:     pt.Stage.Mode,
		Procs:    pt.Procs,
		MsgBytes: pt.MsgBytes,
		SegSize:  pt.SegSize,
	})
	if err != nil {
		// Every field is a plain value; Marshal cannot fail on them.
		panic(fmt.Sprintf("experiment: cache key: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// cacheShards is the number of independently locked stripes. 16 is
// comfortably past the worker counts sweeps run with, so two workers
// collide on a stripe lock only by birthday accident, not by design.
const cacheShards = 16

// cacheShard is one independently locked stripe of the in-memory store.
type cacheShard struct {
	mu  sync.Mutex
	mem map[string]Measurement
}

// Cache is a content-addressed measurement store shared by sweeps. Keys
// cover the complete experiment identity, so a cache never returns a
// measurement for a different profile, point, or methodology — reusing
// one cache across clusters and tools is safe.
//
// A Cache always holds entries in memory, sharded across independently
// locked stripes so concurrent sweep workers do not serialise on one
// mutex; NewDiskCache additionally persists each entry as a JSON file
// named <key>.json in a directory, so separate process invocations
// (calibrate, then decisiontable over the same grid) skip already-measured
// points. All methods are safe for concurrent use.
type Cache struct {
	shards [cacheShards]cacheShard
	dir    string
}

// NewCache returns an in-memory cache.
func NewCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].mem = make(map[string]Measurement)
	}
	return c
}

// NewDiskCache returns a cache backed by dir, creating it if necessary.
func NewDiskCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: cache dir: %w", err)
	}
	c := NewCache()
	c.dir = dir
	return c, nil
}

// shard maps a key to its stripe (FNV-1a over the key, which is already a
// hash — any byte mix distributes it uniformly).
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.mem)
		s.mu.Unlock()
	}
	return n
}

func (c *Cache) get(key string) (Measurement, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.mem[key]; ok {
		return m, true
	}
	if c.dir == "" {
		return Measurement{}, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return Measurement{}, false
	}
	var m Measurement
	if err := json.Unmarshal(data, &m); err != nil || !m.valid() {
		// A truncated, foreign or corrupt file is treated as a miss; the
		// fresh measurement will overwrite it.
		return Measurement{}, false
	}
	s.mem[key] = m
	return m, true
}

// valid reports whether a decoded disk entry is a measurement at all: one
// with samples, a repetition count that matches them, and a finite mean.
// JSON that merely decodes ({} or {"Mean":1}) is not.
func (m Measurement) valid() bool {
	return m.Reps > 0 && m.Reps == len(m.Samples) && !math.IsNaN(m.Mean) && !math.IsInf(m.Mean, 0)
}

func (c *Cache) put(key string, m Measurement) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = m
	if c.dir == "" {
		return
	}
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	// Write-then-rename so a concurrent reader never sees a torn file.
	tmp := filepath.Join(c.dir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(c.dir, key+".json"))
}
