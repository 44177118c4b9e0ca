package fleet

// ring.go is the device→node routing layer of the multi-node tier: N
// fleetd nodes sit behind a consistent-hash ring, clients (cmd/fleetload,
// or a thin proxy) route each device's uploads to Ring.Node(device), and a
// regional fleet-agg folds the nodes' snapshots. Consistent hashing — many
// virtual points per node on a 64-bit circle — keeps the device→node
// mapping stable under membership change: removing a node remaps only the
// devices it owned, so at most that node's dictionaries resync (409), not
// the whole fleet's.
//
// Device affinity is what makes the binary wire format work across nodes:
// a device's dictionary lives on exactly one node, so its delta uploads
// always land where the dictionary is. Which node a device maps to never
// affects the folded result (core.Report.Merge is commutative and
// associative) — the ring is a dictionary-locality optimization, not a
// correctness requirement.

import (
	"fmt"
	"sort"
)

// defaultRingReplicas is the number of virtual points per node; more points
// smooth the load split at the cost of a larger table.
const defaultRingReplicas = 128

// Ring is an immutable consistent-hash ring over node names. Build one
// with NewRing; share it freely (reads only).
type Ring struct {
	hashes []uint64 // sorted virtual points
	owner  []string // owner[i] owns hashes[i]
}

// NewRing places each node at replicas (default 128 when <= 0) virtual
// points. Node order does not matter: the ring is a pure function of the
// node name set.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultRingReplicas
	}
	r := &Ring{
		hashes: make([]uint64, 0, len(nodes)*replicas),
		owner:  make([]string, 0, len(nodes)*replicas),
	}
	type point struct {
		h    uint64
		node string
	}
	points := make([]point, 0, len(nodes)*replicas)
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			points = append(points, point{ringHash(fmt.Sprintf("%s#%d", n, i)), n})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].h != points[j].h {
			return points[i].h < points[j].h
		}
		// Hash ties (vanishingly rare) break by name so the ring stays a
		// pure function of the node set.
		return points[i].node < points[j].node
	})
	for _, p := range points {
		r.hashes = append(r.hashes, p.h)
		r.owner = append(r.owner, p.node)
	}
	return r
}

// Node returns the node owning key (a device identity): the first virtual
// point clockwise of the key's hash. An empty ring returns "".
func (r *Ring) Node(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap around the circle
	}
	return r.owner[i]
}

// RingHash exposes the ring's key hash. The simulation engine uses it to
// partition devices across workers with the same function that routes them
// across nodes, so one worker's devices land on a stable node set and a
// worker count change never perturbs device→node affinity.
func RingHash(key string) uint64 { return ringHash(key) }

// ringHash is FNV-1a with a murmur-style finalizer, inlined so routing a
// device allocates nothing. The finalizer matters: raw FNV diffuses a
// key's trailing bytes into the low bits only, so sequential device names
// ("device-000041", "device-000042", …) cluster on one tiny arc of the
// circle and one node ends up owning nearly the whole fleet.
func ringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
