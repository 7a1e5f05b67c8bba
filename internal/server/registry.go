package server

import (
	"sort"
	"sync"
)

// Sharded segment registry (DESIGN.md §8). The registry replaces the
// old single server mutex for segment lookup: open/create/lookup take
// only one shard's RWMutex, so sessions working different segments
// never serialize on a global lock, and a lookup (the common case)
// takes only a read lock. Segment states are never removed — a
// *segState, once published, is valid for the server's lifetime, so
// callers may hold the pointer across its own lock without
// revalidation.
//
// Lock hierarchy: a shard lock is never held while acquiring a
// segState lock or any other shard's lock; registry methods return
// before the caller locks the segState.

// regShards is the shard count; a small power of two keeps the modulo
// cheap while making shard collisions between hot segments unlikely.
const regShards = 32

// regShard is one registry shard: an RWMutex'd slice of the name
// space.
type regShard struct {
	mu sync.RWMutex
	m  map[string]*segState
}

// segRegistry is the sharded name → segState table.
type segRegistry struct {
	shards [regShards]regShard
}

func (r *segRegistry) init() {
	for i := range r.shards {
		r.shards[i].m = make(map[string]*segState)
	}
}

// shardOf picks the shard for a segment name (FNV-1a).
func (r *segRegistry) shardOf(name string) *regShard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return &r.shards[h%regShards]
}

// get returns the named segment state, if present.
func (r *segRegistry) get(name string) (*segState, bool) {
	sh := r.shardOf(name)
	sh.mu.RLock()
	st, ok := sh.m[name]
	sh.mu.RUnlock()
	return st, ok
}

// getOrCreate returns the named segment state, creating it with mk
// when absent. It reports whether this call created the state; under
// racing creates exactly one caller sees created=true.
func (r *segRegistry) getOrCreate(name string, mk func(string) *segState) (*segState, bool) {
	sh := r.shardOf(name)
	sh.mu.RLock()
	st, ok := sh.m[name]
	sh.mu.RUnlock()
	if ok {
		return st, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st, ok := sh.m[name]; ok {
		return st, false
	}
	st = mk(name)
	sh.m[name] = st
	return st, true
}

// snapshot returns every segment state, sorted by segment name — the
// deterministic iteration order multi-segment passes (compaction,
// epoch changes, session cleanup) use so they acquire segment locks
// in a consistent order (DESIGN.md §8).
func (r *segRegistry) snapshot() []*segState {
	var out []*segState
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, st := range sh.m {
			out = append(out, st)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// names lists every registered segment name, sorted.
func (r *segRegistry) names() []string {
	sts := r.snapshot()
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = st.name
	}
	return out
}
