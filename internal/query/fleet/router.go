// Package fleet shards one SP's serving duty across N cache shards: a
// consistent-hash router pins each query key to a shard (warm caches,
// stable load split), all shards read one SP behind an RCU-style snapshot
// that each block advances once, so reads never block on writes, and a
// shared front door routes both fabric (topic) and wire (RPC) traffic.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Router is a rendezvous-hashing (highest-random-weight) consistent router:
// each key goes to the member with the highest hash(member, key) score.
// Adding or removing one of N members remaps only the keys whose top score
// involved that member — about 1/N of the key space — while every other key
// keeps its replica and its warm cache.
//
// Router is safe for concurrent use; Route may run while members change.
type Router struct {
	mu      sync.RWMutex
	members []string // sorted for deterministic iteration
}

// NewRouter creates a router over the given members.
func NewRouter(members ...string) *Router {
	r := &Router{}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// Add inserts a member (idempotent).
func (r *Router) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.SearchStrings(r.members, name)
	if i < len(r.members) && r.members[i] == name {
		return
	}
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = name
}

// Remove deletes a member (idempotent).
func (r *Router) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.SearchStrings(r.members, name)
	if i < len(r.members) && r.members[i] == name {
		r.members = append(r.members[:i], r.members[i+1:]...)
	}
}

// Members returns the current member set, sorted.
func (r *Router) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Route returns the member owning key.
func (r *Router) Route(key string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.members) == 0 {
		return "", fmt.Errorf("fleet: routing with no members")
	}
	best, bestScore := r.members[0], uint64(0)
	for _, m := range r.members {
		if s := score(m, key); s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best, nil
}

// score is the rendezvous weight of (member, key).
func score(member, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(member))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}
