package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"sync"

	"repro/internal/fmu"
	"repro/internal/timeseries"
)

// simCache is the content-addressed simulation result cache: the key hashes
// everything the trajectory is a function of — the model GUID, the
// instance's current variable values, the resolved input series, and the
// simulation window/step — so a repeated what-if fmu_simulate short-circuits
// to the stored frame instead of re-integrating. Content addressing makes
// recalibration-safety structural (fitted parameters change the key), but
// entries are additionally invalidated by instance when fmu_parest commits,
// keeping the LRU from holding frames no query can ever hit again.
//
// Cached *fmu.SimResult frames are shared read-only: the row stream only
// reads the frame, so one entry serves concurrent statements.
type simCache struct {
	mu    sync.Mutex
	cap   int // max entries; <= 0 disables the cache
	lru   *list.List
	byKey map[string]*list.Element
	// byInstance tracks which keys each instance produced, for explicit
	// invalidation on recalibration/reset/delete.
	byInstance map[string]map[string]struct{}

	hits, misses, evictions, invalidations uint64
}

type simCacheEntry struct {
	key        string
	instanceID string
	res        *fmu.SimResult
	timestamps bool
}

// defaultSimCacheEntries bounds the cache; each entry is one compact
// trajectory frame.
const defaultSimCacheEntries = 128

func newSimCache(capacity int) *simCache {
	return &simCache{
		cap:        capacity,
		lru:        list.New(),
		byKey:      make(map[string]*list.Element),
		byInstance: make(map[string]map[string]struct{}),
	}
}

// simCacheKey hashes the full simulation identity. Variable values are
// hashed in sorted name order; input series hash their sample arrays.
func simCacheKey(modelID string, inst *fmu.Instance, unit *fmu.Unit,
	inputs map[string]*timeseries.Series, t0, t1, step float64) string {
	h := sha256.New()
	h.Write([]byte(modelID))

	names := make([]string, 0, len(unit.Description.ModelVariables.Variables))
	for _, sv := range unit.Description.ModelVariables.Variables {
		names = append(names, sv.Name)
	}
	sort.Strings(names)
	var buf [8]byte
	writeF := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, n := range names {
		h.Write([]byte{0})
		h.Write([]byte(n))
		if v, err := inst.GetReal(n); err == nil {
			writeF(v)
		} else {
			h.Write([]byte{0xff})
		}
	}

	ins := make([]string, 0, len(inputs))
	for n := range inputs {
		ins = append(ins, n)
	}
	sort.Strings(ins)
	for _, n := range ins {
		h.Write([]byte{1})
		h.Write([]byte(n))
		s := inputs[n]
		for i := range s.Times {
			writeF(s.Times[i])
			writeF(s.Values[i])
		}
	}

	h.Write([]byte{2})
	writeF(t0)
	writeF(t1)
	writeF(step)
	return hex.EncodeToString(h.Sum(nil))
}

// get returns the cached frame for key, if present, promoting it to
// most-recently-used.
func (c *simCache) get(key string) (*fmu.SimResult, bool, bool) {
	if c == nil || c.cap <= 0 {
		return nil, false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	e := el.Value.(*simCacheEntry)
	return e.res, e.timestamps, true
}

// put stores a frame under key, evicting the least-recently-used entry past
// capacity.
func (c *simCache) put(key, instanceID string, res *fmu.SimResult, timestamps bool) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&simCacheEntry{key: key, instanceID: instanceID, res: res, timestamps: timestamps})
	c.byKey[key] = el
	keys := c.byInstance[instanceID]
	if keys == nil {
		keys = make(map[string]struct{})
		c.byInstance[instanceID] = keys
	}
	keys[key] = struct{}{}
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
}

func (c *simCache) removeLocked(el *list.Element) {
	e := el.Value.(*simCacheEntry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	if keys := c.byInstance[e.instanceID]; keys != nil {
		delete(keys, e.key)
		if len(keys) == 0 {
			delete(c.byInstance, e.instanceID)
		}
	}
}

// invalidateInstance drops every entry an instance produced — called when
// recalibration, reset, or deletion changes what the instance would compute.
func (c *simCache) invalidateInstance(instanceID string) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.byInstance[instanceID] {
		if el, ok := c.byKey[key]; ok {
			c.removeLocked(el)
			c.invalidations++
		}
	}
}

// CacheStats is a point-in-time snapshot of the simulation cache counters.
type CacheStats struct {
	Entries       int
	Capacity      int
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

// HitRate is hits / (hits + misses), 0 when the cache has seen no lookups.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

func (c *simCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:       c.lru.Len(),
		Capacity:      c.cap,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
