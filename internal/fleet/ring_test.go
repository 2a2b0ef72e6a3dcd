package fleet

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like the real route keys (hex fingerprints) but any stable
		// string works: FNV spreads them uniformly.
		keys[i] = fmt.Sprintf("fingerprint-%08x", i*2654435761)
	}
	return keys
}

// TestRingDeterministic: two rings over the same membership — regardless of
// list order — agree on every owner and on the full preference order. This
// is the contract the fleet's deterministic-reassignment story rests on.
func TestRingDeterministic(t *testing.T) {
	replicas := []string{"10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070", "10.0.0.4:7070", "10.0.0.5:7070"}
	shuffled := []string{"10.0.0.4:7070", "10.0.0.1:7070", "10.0.0.5:7070", "10.0.0.3:7070", "10.0.0.2:7070"}
	r1 := NewRing(replicas)
	r2 := NewRing(shuffled)
	for _, key := range ringKeys(2000) {
		o1 := r1.Owners(key, 0)
		o2 := r2.Owners(key, 0)
		if len(o1) != len(replicas) || len(o2) != len(replicas) {
			t.Fatalf("Owners(%q) lengths: %d, %d, want %d", key, len(o1), len(o2), len(replicas))
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("preference order diverges for %q at %d: %q vs %q", key, i, o1, o2)
			}
		}
		seen := map[string]bool{}
		for _, o := range o1 {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats %q: %q", key, o, o1)
			}
			seen[o] = true
		}
	}
}

// TestRingShareBalance: with vnodes points per replica, each replica's key
// share stays within a loose band around the fair 1/N share.
func TestRingShareBalance(t *testing.T) {
	replicas := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	r := NewRing(replicas)
	keys := ringKeys(20000)
	counts := map[string]int{}
	for _, key := range keys {
		counts[r.Owner(key)]++
	}
	fair := float64(len(keys)) / float64(len(replicas))
	for _, addr := range replicas {
		share := float64(counts[addr])
		if share < 0.4*fair || share > 1.8*fair {
			t.Errorf("replica %s owns %d keys, fair share %.0f (counts %v)", addr, counts[addr], fair, counts)
		}
	}
}

// TestRingMinimalMoves is the bounded-load consistent-hashing property test:
// when one replica leaves (goes unavailable), exactly its keys — roughly
// K/N of them — move, each to the key's next preferred replica, and every
// other key keeps its owner. When it rejoins, the assignment returns to the
// original exactly.
func TestRingMinimalMoves(t *testing.T) {
	replicas := []string{"r0:1", "r1:1", "r2:1", "r3:1", "r4:1"}
	r := NewRing(replicas)
	keys := ringKeys(10000)
	all := func(string) bool { return true }

	base := make(map[string]string, len(keys))
	for _, key := range keys {
		owner, idx := r.OwnerBounded(key, 1.25, all, nil)
		if idx != 0 || owner != r.Owner(key) {
			t.Fatalf("unloaded OwnerBounded(%q) = (%s, %d), want affinity owner %s at 0", key, owner, idx, r.Owner(key))
		}
		base[key] = owner
	}

	for _, dead := range replicas {
		without := func(a string) bool { return a != dead }
		moved := 0
		for _, key := range keys {
			owner, _ := r.OwnerBounded(key, 1.25, without, nil)
			if owner == dead {
				t.Fatalf("key %q assigned to unavailable replica %s", key, dead)
			}
			if base[key] != dead {
				if owner != base[key] {
					t.Fatalf("key %q moved %s -> %s though %s was not its owner (dead: %s)",
						key, base[key], owner, base[key], dead)
				}
				continue
			}
			moved++
			// The key must land on its next preferred live replica.
			want := ""
			for _, o := range r.Owners(key, 0) {
				if o != dead {
					want = o
					break
				}
			}
			if owner != want {
				t.Fatalf("key %q (owner %s died) moved to %s, want next preference %s", key, dead, owner, want)
			}
		}
		fair := len(keys) / len(replicas)
		if moved < fair/3 || moved > 3*fair {
			t.Errorf("losing %s moved %d keys, expected ~K/N = %d", dead, moved, fair)
		}
		// Rejoin: assignment returns to the original, key for key.
		for _, key := range keys {
			owner, _ := r.OwnerBounded(key, 1.25, all, nil)
			if owner != base[key] {
				t.Fatalf("after %s rejoined, key %q owned by %s, want %s", dead, key, owner, base[key])
			}
		}
	}
}

// TestRingBoundedLoadSkipsHotReplica: a replica over its bounded-load
// capacity c·ceil((total+1)/alive) is skipped in favor of the key's next
// preference.
func TestRingBoundedLoadSkipsHotReplica(t *testing.T) {
	r := NewRing([]string{"a:1", "b:1", "c:1"})
	key := "some-model-fingerprint"
	owners := r.Owners(key, 0)
	all := func(string) bool { return true }

	// Load 10 on the affinity owner, 0 elsewhere: total 10, alive 3,
	// capacity ceil(1.25*11/3) = 5, so the hot owner is skipped.
	load := func(a string) int {
		if a == owners[0] {
			return 10
		}
		return 0
	}
	got, idx := r.OwnerBounded(key, 1.25, all, load)
	if got != owners[1] || idx != 1 {
		t.Fatalf("hot owner not skipped: got (%s, %d), want (%s, 1)", got, idx, owners[1])
	}

	// Balanced load keeps affinity: 4 each, capacity ceil(1.25*13/3) = 6 > 4.
	balanced := func(string) int { return 4 }
	got, idx = r.OwnerBounded(key, 1.25, all, balanced)
	if got != owners[0] || idx != 0 {
		t.Fatalf("balanced load moved the key: got (%s, %d), want (%s, 0)", got, idx, owners[0])
	}

	// No replica available: no owner.
	none := func(string) bool { return false }
	if got, idx := r.OwnerBounded(key, 1.25, none, nil); got != "" || idx != -1 {
		t.Fatalf("all-dead ring returned (%q, %d), want (\"\", -1)", got, idx)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if o := r.Owner("k"); o != "" {
		t.Fatalf("empty ring Owner = %q, want empty", o)
	}
	if o := r.Owners("k", 3); o != nil {
		t.Fatalf("empty ring Owners = %v, want nil", o)
	}
	if got, idx := r.OwnerBounded("k", 1.25, nil, nil); got != "" || idx != -1 {
		t.Fatalf("empty ring OwnerBounded = (%q, %d)", got, idx)
	}
}
