package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"

	"kaleido"
	"kaleido/internal/dataset"
	"kaleido/internal/graph"
)

// descFor returns the named dataset descriptor; the toy scale shrinks
// vertex and edge counts eightfold for the self-check.
func descFor(name string, toy bool) (dataset.Desc, error) {
	d, err := dataset.ByName(name)
	if err != nil {
		return d, err
	}
	if toy {
		d.Cfg.N /= 8
		d.Cfg.M /= 8
	}
	return d, nil
}

// seededInput is one generated input: the generator's graph and the seeded
// renaming of its vertices (vertex v is called perm[v]).
type seededInput struct {
	gen  *graph.Graph
	perm []uint32
}

// generate generates the named dataset from its descriptor and draws a
// permutation of its vertex ids from seed (seed 0 keeps the generator's
// ids). The seed changes the input's ids, and with them the tie order of
// the degree relabeling, but not its shape: every seed mines an isomorphic
// graph, so the pinned answers hold at every seed and the amount of work
// does not swing with the seed.
func generate(name string, seed int64, toy bool) (*seededInput, error) {
	d, err := descFor(name, toy)
	if err != nil {
		return nil, err
	}
	g, err := dataset.Generate(d)
	if err != nil {
		return nil, err
	}
	perm := make([]uint32, g.N())
	for v := range perm {
		perm[v] = uint32(v)
	}
	if seed != 0 {
		rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	return &seededInput{gen: g, perm: perm}, nil
}

// public builds the renamed graph through kaleido.GraphBuilder, the public
// constructor.
func (in *seededInput) public() (*kaleido.Graph, error) {
	b := kaleido.NewGraphBuilder(in.gen.N())
	for _, e := range in.gen.Edges() {
		b.AddEdge(in.perm[e.U], in.perm[e.V])
	}
	for v, id := range in.perm {
		b.SetLabel(id, in.gen.Label(uint32(v)))
	}
	return b.Build()
}

// relabeled builds the internal degree-ordered graph that public() wraps —
// what the traced runs drive the internal layers with.
func (in *seededInput) relabeled() (*graph.Graph, error) {
	b := graph.NewBuilder(in.gen.N())
	for _, e := range in.gen.Edges() {
		b.AddEdge(in.perm[e.U], in.perm[e.V])
	}
	for v, id := range in.perm {
		b.SetLabel(id, in.gen.Label(uint32(v)))
	}
	raw, err := b.Build()
	if err != nil {
		return nil, err
	}
	return graph.Relabel(raw)
}

// publicGraph generates the named dataset and builds it publicly.
func publicGraph(name string, seed int64, toy bool) (*kaleido.Graph, error) {
	in, err := generate(name, seed, toy)
	if err != nil {
		return nil, err
	}
	return in.public()
}

// writeEdgeList writes the renamed graph as a text edge list kaleidod can
// load: every vertex's label line first, in id order (so ids keep their
// meaning under the loader's first-seen compaction), then one line per edge.
func (in *seededInput) writeEdgeList(path string) error {
	inv := make([]uint32, len(in.perm))
	for v, id := range in.perm {
		inv[id] = uint32(v)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for id, v := range inv {
		fmt.Fprintf(w, "%d label=%d\n", id, in.gen.Label(v))
	}
	for _, e := range in.gen.Edges() {
		fmt.Fprintf(w, "%d %d\n", in.perm[e.U], in.perm[e.V])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
