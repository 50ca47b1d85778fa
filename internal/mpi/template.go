package mpi

import (
	"sync"
)

// TemplateStore is a concurrency-safe map from structure-class keys to
// plan templates, striped into fixed shards (FNV-1a on the key) so that
// sweep workers publishing and looking up templates contend on a shard,
// never on the whole store — the same discipline as the experiment
// layer's measurement cache.
//
// A template is the compiled plan (Runner.Compile) of the first measured
// point of its structure class; every later point of the class rebinds
// it (Runner.Rebind), which skips message matching. Put stores a private
// clone, so callers may pass plans backed by recycled Runner buffers;
// Get hands out the stored plan itself, which must be treated as
// immutable (Rebind never mutates its template). Two workers that
// compile the same class concurrently both publish; the later Put
// replaces the earlier, which is benign — both plans are compiled for
// the class, and readers holding the old one keep using it.
type TemplateStore struct {
	shards [templateShards]templateShard
}

const templateShards = 16

type templateShard struct {
	mu sync.RWMutex
	m  map[string]*Plan
}

// NewTemplateStore builds an empty store.
func NewTemplateStore() *TemplateStore {
	s := &TemplateStore{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]*Plan)
	}
	return s
}

// shard picks the shard for a key: FNV-1a, folded to the shard count.
func (s *TemplateStore) shard(key string) *templateShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &s.shards[h%templateShards]
}

// Get returns the template stored under key, or nil. The returned plan
// is shared and immutable: rebind it, never mutate it.
func (s *TemplateStore) Get(key string) *Plan {
	sh := s.shard(key)
	sh.mu.RLock()
	p := sh.m[key]
	sh.mu.RUnlock()
	return p
}

// Put stores a clone of p under key, replacing any previous template,
// and reports whether the key was new.
func (s *TemplateStore) Put(key string, p *Plan) (added bool) {
	q := p.Clone()
	sh := s.shard(key)
	sh.mu.Lock()
	_, had := sh.m[key]
	sh.m[key] = q
	sh.mu.Unlock()
	return !had
}

// Len returns the number of stored templates.
func (s *TemplateStore) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
