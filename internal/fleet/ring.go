package fleet

import (
	"hash/fnv"
	"math"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes and bounded-load owner
// selection (DESIGN.md §13.1). The membership is fixed at construction — the
// configured replica set — and never rebuilt: availability is a filter
// applied at lookup time, so a replica dying moves exactly the keys it owned
// (its vnode arcs fall through to the next distinct replica clockwise) and
// its return moves exactly those keys back. That makes reassignment
// deterministic and minimal: ~K/len(replicas) keys move per leave/join, and
// two routers with the same replica list agree on every owner.
//
// Keys are model fingerprints (hotspot.Config.Fingerprint — a SHA-256 hex
// digest), so the key space is uniform by construction; vnodes smooth the
// per-replica share. Hashing is FNV-1a 64 passed through a splitmix64
// finalizer — FNV alone has weak high-bit avalanche on short, similar
// inputs (replica addresses differing in one byte), which clusters ring
// points badly. Both stages are fixed functions, stable across processes
// and Go versions, which the deterministic-reassignment contract depends
// on.
type Ring struct {
	replicas []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// vnodes is the per-replica virtual-node count. 128 points per replica
// keeps the share imbalance under a few percent for small fleets.
const vnodes = 128

// boundedLoadFactor is the router's bounded-load factor: no replica takes
// more than 1.25 times the mean in-flight load.
const boundedLoadFactor = 1.25

// NewRing builds the ring over the replica list. Replica order does not
// affect key ownership (points sort by hash), but ties — astronomically
// unlikely with 64-bit FNV — break by replica index, so the list order
// still pins a total order.
func NewRing(replicas []string) *Ring {
	r := &Ring{
		replicas: append([]string(nil), replicas...),
		points:   make([]ringPoint, 0, len(replicas)*vnodes),
	}
	var buf [8]byte
	for ri, addr := range r.replicas {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			_, _ = h.Write([]byte(addr))
			buf[0] = '#'
			buf[1] = byte(v)
			buf[2] = byte(v >> 8)
			_, _ = h.Write(buf[:3])
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), replica: ri})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// Replicas returns the configured membership (construction order).
func (r *Ring) Replicas() []string { return append([]string(nil), r.replicas...) }

func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a fixed bijection that spreads FNV's
// weakly-avalanched bits over the whole 64-bit ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owners returns up to max distinct replicas in clockwise ring order from
// the key's point: the deterministic preference order for routing and
// failover. max <= 0 or beyond the membership yields every replica.
func (r *Ring) Owners(key string, max int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if max <= 0 || max > len(r.replicas) {
		max = len(r.replicas)
	}
	kh := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	seen := make([]bool, len(r.replicas))
	out := make([]string, 0, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}

// Owner is the first entry of Owners: the replica whose cache most likely
// holds the key's compiled model.
func (r *Ring) Owner(key string) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// OwnerBounded walks the key's preference order and returns the first
// replica that is available and under its bounded-load capacity
// c·ceil((total+1)/alive) (the consistent-hashing-with-bounded-loads rule:
// no replica takes more than factor c of the mean load, the +1 counting the
// request being placed). When every available replica is at capacity it
// falls back to the least-loaded available one — shedding is the admission
// layer's job, not the router's. available and load are lookup-time
// filters; a nil available means every replica, a nil load means zero load
// (plain consistent hashing). The second return is the preference-order
// position actually used (0 = affinity owner), for stats.
func (r *Ring) OwnerBounded(key string, c float64, available func(string) bool, load func(string) int) (string, int) {
	owners := r.Owners(key, 0)
	if len(owners) == 0 {
		return "", -1
	}
	if c < 1 {
		c = boundedLoadFactor
	}
	alive, total := 0, 0
	for _, o := range owners {
		if available == nil || available(o) {
			alive++
			if load != nil {
				total += load(o)
			}
		}
	}
	if alive == 0 {
		return "", -1
	}
	capacity := int(math.Ceil(c * float64(total+1) / float64(alive)))
	bestIdx, bestLoad := -1, math.MaxInt
	for i, o := range owners {
		if available != nil && !available(o) {
			continue
		}
		l := 0
		if load != nil {
			l = load(o)
		}
		if l < capacity {
			return o, i
		}
		if l < bestLoad {
			bestIdx, bestLoad = i, l
		}
	}
	return owners[bestIdx], bestIdx
}
