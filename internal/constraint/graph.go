// Package constraint maintains SMARQ's constraint graph: check-constraints
// and anti-constraints over memory operations (§4 of the paper), with the
// incremental cycle detection of §5.4.1.
//
// An edge src → dst always means "src must be allocated an alias register
// order no later than dst" (order(src) ≤ order(dst) for check-constraints,
// strictly earlier for anti-constraints), and dst's allocation is blocked
// until src's. The graph maintains the partial order T with the invariance
// that every edge src → dst has T(src) < T(dst); a violated invariance on
// an anti-constraint insertion signals a potential cycle, resolved either
// by shifting T of the reachable set or — when a true cycle exists — by
// the allocator inserting an AMOV (§5.2).
//
// Storage is slice-indexed adjacency (node IDs are dense region op IDs
// plus a few pseudo IDs), and graphs are reusable: Reset clears a graph
// without freeing its adjacency storage. The allocator embeds one graph
// and resets it per region, so a warm allocator allocates nothing here.
package constraint

import (
	"fmt"
	"sort"
)

// Kind distinguishes the two constraint types.
type Kind uint8

const (
	// Check: order(src) ≤ order(dst); src performs an alias check that
	// must cover dst's alias register.
	Check Kind = iota
	// Anti: order(src) < order(dst); dst must not check src's register.
	Anti
)

// String returns the kind name.
func (k Kind) String() string {
	if k == Anti {
		return "anti"
	}
	return "check"
}

// edge is one adjacency entry; node is the far endpoint.
type edge struct {
	node int32
	kind Kind
}

// Graph is the constraint graph. Node IDs are region op IDs plus any
// pseudo-op IDs the allocator creates for AMOVs.
type Graph struct {
	t   []int
	out [][]edge
	in  [][]edge

	// Reachability scratch: mark[i] == epoch means node i was visited by
	// the current traversal; bumping epoch invalidates all marks at once.
	mark    []int64
	epoch   int64
	stack   []int32
	visited []int32 // nodes marked by the last traversal, for T shifting
	freed   []int   // RemoveOut's reused result buffer

	// NumCheck and NumAnti count constraints ever added (Figure 19's
	// statistic); retargeting moves edges without recounting.
	NumCheck, NumAnti int
}

// New returns an empty constraint graph.
func New() *Graph { return &Graph{} }

// Reset clears the graph for a new region while keeping its allocated
// storage, growing it to cover at least sizeHint nodes.
func (g *Graph) Reset(sizeHint int) {
	// Clear the full capacity: stale T values or adjacency lists beyond
	// the current length would otherwise resurface when the graph grows
	// back into previously used storage.
	g.t = g.t[:cap(g.t)]
	for i := range g.t {
		g.t[i] = 0
	}
	g.t = g.t[:0]
	g.out = clearAdj(g.out)
	g.in = clearAdj(g.in)
	g.NumCheck, g.NumAnti = 0, 0
	g.stack = g.stack[:0]
	g.visited = g.visited[:0]
	g.grow(sizeHint - 1)
}

func clearAdj(adj [][]edge) [][]edge {
	adj = adj[:cap(adj)]
	for i := range adj {
		adj[i] = adj[i][:0]
	}
	return adj[:0]
}

// grow extends the node storage to include id.
func (g *Graph) grow(id int) {
	if id < len(g.t) {
		return
	}
	for len(g.t) <= id {
		g.t = append(g.t, 0)
	}
	g.out = growAdj(g.out, id)
	g.in = growAdj(g.in, id)
	for len(g.mark) <= id {
		g.mark = append(g.mark, 0)
	}
}

func growAdj(adj [][]edge, id int) [][]edge {
	if id < cap(adj) {
		// Re-expose recycled per-node lists (truncated, capacity kept).
		return adj[:id+1]
	}
	n := make([][]edge, id+1, 2*(id+1))
	copy(n, adj)
	return n[:id+1]
}

// SetT initializes (or overrides) a node's partial order value. The
// allocator initializes every op's T to its original program position
// (Figure 13 line 2) and gives AMOV pseudo-ops explicit values.
func (g *Graph) SetT(id, t int) {
	g.grow(id)
	g.t[id] = t
}

// T returns a node's partial order value (0 for untouched nodes).
func (g *Graph) T(id int) int {
	if id < len(g.t) {
		return g.t[id]
	}
	return 0
}

func (g *Graph) addEdge(src, dst int, k Kind) {
	if src == dst {
		panic(fmt.Sprintf("constraint: self edge on op %d", src))
	}
	g.grow(src)
	g.grow(dst)
	// Map semantics: re-adding an existing edge overwrites its kind.
	for i, e := range g.out[src] {
		if int(e.node) == dst {
			g.out[src][i].kind = k
			for j, ie := range g.in[dst] {
				if int(ie.node) == src {
					g.in[dst][j].kind = k
					break
				}
			}
			return
		}
	}
	g.out[src] = append(g.out[src], edge{node: int32(dst), kind: k})
	g.in[dst] = append(g.in[dst], edge{node: int32(src), kind: k})
}

// removeEdge deletes src → dst from both adjacency lists (no-op when
// absent), preserving insertion order.
func (g *Graph) removeEdge(src, dst int) {
	g.out[src] = spliceOut(g.out[src], dst)
	g.in[dst] = spliceOut(g.in[dst], src)
}

func spliceOut(list []edge, node int) []edge {
	for i, e := range list {
		if int(e.node) == node {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// AddCheck inserts the check-constraint src →check dst. When the
// T-invariance is violated, src's T is lowered to T(dst)-1; this is always
// safe because check sources are not yet scheduled and therefore have no
// incoming constraints (§5.4.1: "Since X is not scheduled yet, there is no
// constraint →check X or →anti X yet").
func (g *Graph) AddCheck(src, dst int) {
	g.grow(src)
	g.grow(dst)
	if g.t[src] >= g.t[dst] {
		g.t[src] = g.t[dst] - 1
	}
	g.addEdge(src, dst, Check)
	g.NumCheck++
}

// TryAddAnti attempts to insert the anti-constraint src →anti dst. When the
// T-invariance holds, or can be restored by shifting the set H reachable
// from dst, the edge is added and TryAddAnti returns true. When src is
// reachable from dst the edge would close a cycle; the graph is left
// unchanged and TryAddAnti returns false — the allocator must break the
// cycle with an AMOV.
func (g *Graph) TryAddAnti(src, dst int) bool {
	g.grow(src)
	g.grow(dst)
	if g.t[src] < g.t[dst] {
		g.addEdge(src, dst, Anti)
		g.NumAnti++
		return true
	}
	g.traverse(dst)
	if g.mark[src] == g.epoch {
		return false
	}
	delta := g.t[src] - g.t[dst] + 1
	for _, z := range g.visited {
		g.t[z] += delta
	}
	g.addEdge(src, dst, Anti)
	g.NumAnti++
	return true
}

// traverse marks every node reachable from start (including start) with a
// fresh epoch and records them in g.visited.
func (g *Graph) traverse(start int) {
	g.epoch++
	g.mark[start] = g.epoch
	g.visited = append(g.visited[:0], int32(start))
	g.stack = append(g.stack[:0], int32(start))
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, e := range g.out[n] {
			if g.mark[e.node] != g.epoch {
				g.mark[e.node] = g.epoch
				g.visited = append(g.visited, e.node)
				g.stack = append(g.stack, e.node)
			}
		}
	}
}

// Reachable returns the set of nodes reachable from start by constraint
// edges, including start itself (the paper's set H).
func (g *Graph) Reachable(start int) map[int]bool {
	g.grow(start)
	g.traverse(start)
	h := make(map[int]bool, len(g.visited))
	for _, z := range g.visited {
		h[int(z)] = true
	}
	return h
}

// InDegree returns the number of constraints currently blocking id's
// allocation.
func (g *Graph) InDegree(id int) int {
	if id < len(g.in) {
		return len(g.in[id])
	}
	return 0
}

// HasEdge reports whether the edge src → dst is currently present, and its
// kind.
func (g *Graph) HasEdge(src, dst int) (Kind, bool) {
	if src < len(g.out) {
		for _, e := range g.out[src] {
			if int(e.node) == dst {
				return e.kind, true
			}
		}
	}
	return 0, false
}

// RemoveOut deletes all constraints whose source is src (performed when src
// is allocated, Figure 13 lines 66-67) and returns the destinations whose
// in-degree dropped to zero, in ascending ID order. The order feeds the
// allocator's drain FIFO and therefore the final register offsets; sorting
// keeps allocation deterministic across runs. The returned slice is reused
// and only valid until the next RemoveOut call.
func (g *Graph) RemoveOut(src int) []int {
	if src >= len(g.out) {
		return nil
	}
	freed := g.freed[:0]
	for _, e := range g.out[src] {
		dst := int(e.node)
		g.in[dst] = spliceOut(g.in[dst], src)
		if len(g.in[dst]) == 0 {
			freed = append(freed, dst)
		}
	}
	g.out[src] = g.out[src][:0]
	sort.Ints(freed)
	g.freed = freed
	return freed
}

// RetargetIncomingChecks moves pending check-constraints z →check old to
// z →check newDst for every source z accepted by shouldMove (Figure 13
// lines 41-42: after an AMOV, *not-yet-scheduled* checkers must check the
// moved register instead; already-scheduled checkers execute before the
// AMOV and keep checking the original register). Each mover's T is lowered
// below T(newDst) when needed — safe because movers are unscheduled and
// therefore have no incoming constraints. It returns the sources whose
// edges moved.
func (g *Graph) RetargetIncomingChecks(old, newDst int, shouldMove func(src int) bool) []int {
	g.grow(old)
	g.grow(newDst)
	srcs := make([]int, 0, len(g.in[old]))
	for _, e := range g.in[old] {
		if e.kind == Check {
			srcs = append(srcs, int(e.node))
		}
	}
	sort.Ints(srcs) // deterministic retarget order regardless of storage layout
	var moved []int
	for _, src := range srcs {
		if !shouldMove(src) {
			continue
		}
		g.removeEdge(src, old)
		if g.t[src] >= g.t[newDst] {
			g.t[src] = g.t[newDst] - 1
		}
		g.addEdge(src, newDst, Check)
		moved = append(moved, src)
	}
	return moved
}

// CheckInvariance verifies T(src) < T(dst) for every edge; used by tests
// and the allocator's internal assertions.
func (g *Graph) CheckInvariance() error {
	for src := range g.out {
		for _, e := range g.out[src] {
			if g.t[src] >= g.t[e.node] {
				return fmt.Errorf("constraint: invariance violated: T(%d)=%d >= T(%d)=%d", src, g.t[src], e.node, g.t[e.node])
			}
		}
	}
	return nil
}

// Edges returns all current edges for inspection.
func (g *Graph) Edges() []struct {
	Src, Dst int
	Kind     Kind
} {
	var out []struct {
		Src, Dst int
		Kind     Kind
	}
	for src := range g.out {
		for _, e := range g.out[src] {
			out = append(out, struct {
				Src, Dst int
				Kind     Kind
			}{src, int(e.node), e.kind})
		}
	}
	return out
}
