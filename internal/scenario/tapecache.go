package scenario

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/uarch"
)

// TapeCache keeps the workload tapes Compile records across compiles, so a
// repeated spec reads its phases' tapes instead of simulating them again
// (DESIGN.md §6.2). A tape is keyed by everything its recording reads —
// the workload preset, the phase seed, the cycles per control step (by
// their bits) and the number of taped steps — and is immutable once
// recorded, so any number of compiled scenarios may share it. The cache
// holds at most maxTapeInstrs instructions in total, each entry charged
// tapeEntryInstrs more for its bookkeeping, and evicts the least recently
// used tape first; an evicted tape lives on in the scenarios that hold it.
// Concurrent misses on one key may both record, and the first insert wins.
// Safe for concurrent use; the zero value is not, use NewTapeCache.
type TapeCache struct {
	mu      sync.Mutex
	limit   int // the most charged instructions held
	held    int // charged instructions held
	entries map[tapeKey]*list.Element
	lru     *list.List // of *tapeEntry, most recently used first

	hits, misses int64
}

// tapeKey identifies one recording: a phase's first entry, simulated from
// reset over the preset's stream seeded seed, to the end cycle of each of
// steps control steps of cyclesPerStep cycles.
type tapeKey struct {
	preset        string
	seed          int64
	cyclesPerStep uint64 // math.Float64bits
	steps         int
}

type tapeEntry struct {
	key  tapeKey
	tape *uarch.Tape
}

// tapeEntryInstrs is what an entry costs beyond its instructions: its map
// slot, list element and tape headers, about 250 bytes, at 9 bytes per
// instruction. A flood of tiny tapes therefore cannot hold more memory
// than the bound's 36 MiB.
const tapeEntryInstrs = 32

// NewTapeCache returns an empty cache bounded at maxTapeInstrs
// instructions, one scenario's worst case.
func NewTapeCache() *TapeCache { return newTapeCache(maxTapeInstrs) }

func newTapeCache(limit int) *TapeCache {
	return &TapeCache{limit: limit, entries: make(map[tapeKey]*list.Element), lru: list.New()}
}

// TapeCacheStats is a snapshot of a TapeCache.
type TapeCacheStats struct {
	// Tapes and Instrs count the tapes held and their instructions.
	Tapes  int `json:"tapes"`
	Instrs int `json:"instrs"`
	// Hits counts taped phases compiles read from the cache; Misses counts
	// the ones they recorded.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats returns a snapshot of the cache.
func (tc *TapeCache) Stats() TapeCacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return TapeCacheStats{
		Tapes:  tc.lru.Len(),
		Instrs: tc.held - tapeEntryInstrs*tc.lru.Len(),
		Hits:   tc.hits,
		Misses: tc.misses,
	}
}

// tapeKey returns the key of the phase's recording.
func (ph *compiledPhase) tapeKey() tapeKey {
	return tapeKey{preset: ph.preset, seed: ph.seed, cyclesPerStep: math.Float64bits(ph.cyclesPerStep), steps: ph.tapeSteps}
}

// get returns the tape cached under k, or nil on a miss. A nil cache
// always misses.
func (tc *TapeCache) get(k tapeKey) *uarch.Tape {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e := tc.entries[k]
	if e == nil {
		tc.misses++
		return nil
	}
	tc.hits++
	tc.lru.MoveToFront(e)
	return e.Value.(*tapeEntry).tape
}

// put caches t, a whole recording of k, evicting the least recently used
// tapes until it fits, and returns the tape to keep: the cached one when
// a concurrent compile inserted k first. A nil cache keeps t.
func (tc *TapeCache) put(k tapeKey, t *uarch.Tape) *uarch.Tape {
	if tc == nil {
		return t
	}
	cost := t.Len() + tapeEntryInstrs
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if e := tc.entries[k]; e != nil {
		tc.lru.MoveToFront(e)
		return e.Value.(*tapeEntry).tape
	}
	if cost > tc.limit {
		return t
	}
	for tc.held+cost > tc.limit {
		old := tc.lru.Remove(tc.lru.Back()).(*tapeEntry)
		delete(tc.entries, old.key)
		tc.held -= old.tape.Len() + tapeEntryInstrs
	}
	tc.entries[k] = tc.lru.PushFront(&tapeEntry{key: k, tape: t})
	tc.held += cost
	return t
}
