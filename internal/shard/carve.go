package shard

import (
	"fmt"

	"repro/internal/demand"
	"repro/internal/topology"
)

// GroupSpec describes one shard's replica group before it is built: a name
// for the ring, a sub-topology, and the demand field its replicas see.
type GroupSpec struct {
	// Name is the group's ring name (unique within a router).
	Name string
	// Graph is the group's own connected sub-topology, node ids 0..k-1.
	Graph *topology.Graph
	// Field is the demand its replicas see, indexed by those local ids.
	Field demand.Field
}

// mappedField exposes a slice of a shared demand field to a shard whose
// local node ids 0..k-1 correspond to global ids global[0..k-1].
type mappedField struct {
	base   demand.Field
	global []topology.NodeID
}

func (m mappedField) At(n demand.NodeID, t float64) float64 {
	return m.base.At(m.global[n], t)
}

// Carve partitions a shared topology into nShards contiguous node blocks
// and returns one GroupSpec per block: the induced subgraph relabelled to
// local ids 0..k-1, and a view of the shared demand field restricted to the
// block. Induced subgraphs can come out disconnected (the shared graph's
// edges may all leave the block), so Carve deterministically bridges the
// components with extra edges — every returned sub-topology is connected
// and usable as a replica group.
func Carve(g *topology.Graph, field demand.Field, nShards int) ([]GroupSpec, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: nil topology")
	}
	if field == nil {
		return nil, fmt.Errorf("shard: nil demand field")
	}
	if nShards <= 0 {
		return nil, fmt.Errorf("shard: non-positive shard count %d", nShards)
	}
	if g.N() < nShards {
		return nil, fmt.Errorf("shard: cannot carve %d shards from %d nodes", nShards, g.N())
	}
	specs := make([]GroupSpec, 0, nShards)
	for i := 0; i < nShards; i++ {
		lo := i * g.N() / nShards
		hi := (i + 1) * g.N() / nShards
		global := make([]topology.NodeID, 0, hi-lo)
		for u := lo; u < hi; u++ {
			global = append(global, topology.NodeID(u))
		}
		sub := induce(g, global, fmt.Sprintf("%s/shard%d", g.Name(), i))
		specs = append(specs, GroupSpec{
			Name:  fmt.Sprintf("shard%d", i),
			Graph: sub,
			Field: mappedField{base: field, global: global},
		})
	}
	return specs, nil
}

// induce builds the subgraph of g over the given global nodes, relabelled to
// 0..len-1, then bridges disconnected components so the result is connected.
func induce(g *topology.Graph, global []topology.NodeID, name string) *topology.Graph {
	local := make(map[topology.NodeID]topology.NodeID, len(global))
	for i, u := range global {
		local[u] = topology.NodeID(i)
	}
	sub := topology.New(len(global), name)
	for i, u := range global {
		if p, ok := g.Pos(u); ok {
			sub.SetPos(topology.NodeID(i), p)
		}
		for _, v := range g.Neighbors(u) {
			lv, in := local[v]
			if !in || topology.NodeID(i) >= lv {
				continue // edge leaves the block, or already added from v's side
			}
			if err := sub.AddEdge(topology.NodeID(i), lv); err != nil {
				panic(err) // unreachable: induced edges are unique and in range
			}
		}
	}
	// Bridge components: connect each component's smallest node to the
	// first component's smallest node. Components() is deterministic, so
	// carving is reproducible across runs.
	comps := sub.Components()
	for _, comp := range comps[1:] {
		if err := sub.AddEdge(comps[0][0], comp[0]); err != nil {
			panic(err) // unreachable: distinct components share no edges
		}
	}
	sub.SortAdjacency()
	return sub
}
