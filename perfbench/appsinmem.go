package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"kaleido"
	"kaleido/internal/eigen"
	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/pattern"
)

// Pinned answers of apps-inmem (every seed mines an isomorphic graph).
const (
	motif4Total   = 4802589
	motif4Classes = 6
	fsm4Patterns  = 10
	clique6Count  = 189
	fsm4Support   = 300
)

// appsGraphs are apps-inmem's inputs.
type appsGraphs struct {
	citeseer, patent, youtube *kaleido.Graph
}

func buildAppsGraphs(opt *options) (*appsGraphs, error) {
	var gs appsGraphs
	for _, p := range []struct {
		name string
		dst  **kaleido.Graph
	}{{"citeseer", &gs.citeseer}, {"patent", &gs.patent}, {"youtube", &gs.youtube}} {
		g, err := publicGraph(p.name, opt.seed, opt.toy)
		if err != nil {
			return nil, err
		}
		*p.dst = g
	}
	return &gs, nil
}

// appsResult is one round's answers.
type appsResult struct {
	motifTotal  uint64
	motifCounts []uint64 // per-class counts, sorted
	fsmPatterns []string
	cliques     uint64
}

// runAppsInmem times three unbudgeted app runs, each on its own: 4-motif on
// citeseer, 4-FSM on patent and 6-clique on youtube.
func runAppsInmem(ctx context.Context, opt *options, out *outcome) error {
	var gs *appsGraphs
	if err := timeSetup(opt, out, func() (err error) {
		gs, err = buildAppsGraphs(opt)
		return err
	}, nil); err != nil {
		return err
	}

	// The motif total must equal a Miner's count of the depth-4 level of
	// the same graph.
	wantTotal, err := minerCount(ctx, gs.citeseer, 4)
	if !out.op("miner count", err) {
		return nil
	}
	if opt.tamper {
		wantTotal++
	}
	check := func(r *appsResult) {
		out.expect(r.motifTotal == wantTotal, "4-motif total %d != Miner.ExpandCount %d", r.motifTotal, wantTotal)
		if !opt.toy {
			out.expect(r.motifTotal == motif4Total && len(r.motifCounts) == motif4Classes,
				"4-motif: %d embeddings in %d classes, want %d in %d", r.motifTotal, len(r.motifCounts), motif4Total, motif4Classes)
			out.expect(len(r.fsmPatterns) == fsm4Patterns, "4-FSM: %d patterns, want %d", len(r.fsmPatterns), fsm4Patterns)
			out.expect(r.cliques == clique6Count, "6-clique: %d, want %d", r.cliques, clique6Count)
		}
	}

	if opt.trace {
		return traceAppsInmem(ctx, opt, gs, out, check)
	}

	var motif, fsm, clique, rounds, rsss []float64
	var first *appsResult
	for start := time.Now(); len(rounds) == 0 || roomFor(start, rounds[len(rounds)-1], opt.seconds); {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		r, times, err := appsRound(ctx, gs, nil)
		if !out.op("apps round", err) {
			return nil
		}
		out.attempted += 2 // a round is three app calls
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		rsss = append(rsss, rss)
		if first == nil {
			first = r
			check(r)
		} else {
			out.expect(equalAppsResults(first, r), "apps results changed between rounds")
		}
		motif = append(motif, times[0])
		fsm = append(fsm, times[1])
		clique = append(clique, times[2])
		rounds = append(rounds, sum(times))
	}
	out.e2e["peak_rss_mb"] = quantile(rsss, 0.75) // the upper quartile, as in miner-ooc
	out.e2e["work_s"] = median(rounds)
	out.e2e["tail_s"] = median(motif)
	note("rounds=%d motif4_s=%.4f fsm4_s=%.4f clique6_s=%.4f (medians)", len(rounds), median(motif), median(fsm), median(clique))
	return nil
}

// appsRound runs the three apps once, timing each call. stats, when
// non-nil, receives each run's accounting (motif, fsm, clique).
func appsRound(ctx context.Context, gs *appsGraphs, stats *[3]kaleido.Stats) (*appsResult, []float64, error) {
	cfg := func(i int) kaleido.Config {
		if stats == nil {
			return kaleido.Config{}
		}
		return kaleido.Config{Stats: &stats[i]}
	}
	r := &appsResult{}
	times := make([]float64, 3)

	t := time.Now()
	motifs, err := gs.citeseer.Motifs(ctx, 4, cfg(0))
	times[0] = time.Since(t).Seconds()
	if err != nil {
		return nil, nil, fmt.Errorf("4-motif: %w", err)
	}
	for _, pc := range motifs {
		r.motifTotal += pc.Count
		r.motifCounts = append(r.motifCounts, pc.Count)
	}
	sortCounts(r.motifCounts)

	t = time.Now()
	pats, err := gs.patent.FSM(ctx, 4, fsm4Support, cfg(1))
	times[1] = time.Since(t).Seconds()
	if err != nil {
		return nil, nil, fmt.Errorf("4-FSM: %w", err)
	}
	for _, pc := range pats {
		r.fsmPatterns = append(r.fsmPatterns, fmt.Sprintf("%d/%d", pc.Count, pc.Support))
	}
	sort.Strings(r.fsmPatterns)

	t = time.Now()
	r.cliques, err = gs.youtube.Cliques(ctx, 6, cfg(2))
	times[2] = time.Since(t).Seconds()
	if err != nil {
		return nil, nil, fmt.Errorf("6-clique: %w", err)
	}
	return r, times, nil
}

func sortCounts(c []uint64) { sort.Slice(c, func(i, j int) bool { return c[i] < c[j] }) }

func equalAppsResults(a, b *appsResult) bool {
	return a.motifTotal == b.motifTotal && a.cliques == b.cliques &&
		fmt.Sprint(a.motifCounts) == fmt.Sprint(b.motifCounts) &&
		fmt.Sprint(a.fsmPatterns) == fmt.Sprint(b.fsmPatterns)
}

// minerCount counts the depth-k vertex-induced embeddings of g through the
// public Miner: Expand to depth k-1, then ExpandCount.
func minerCount(ctx context.Context, g *kaleido.Graph, k int) (uint64, error) {
	m, err := g.NewMiner(ctx, kaleido.VertexInduced, kaleido.Config{})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	for m.Depth() < k-1 {
		if err := m.Expand(ctx, nil); err != nil {
			return 0, err
		}
	}
	return m.ExpandCount(ctx, nil)
}

// traceAppsInmem is the traced run: a plain round of the three app calls, a
// round with Config.Stats, and 4-motif rebuilt from the layers' exported
// functions so each layer's share can be timed from outside.
func traceAppsInmem(ctx context.Context, opt *options, gs *appsGraphs, out *outcome, check func(*appsResult)) error {
	plain, plainTimes, err := appsRound(ctx, gs, nil)
	if !out.op("apps round", err) {
		return nil
	}
	out.attempted += 2
	check(plain)

	var stats [3]kaleido.Stats
	traced, times, err := appsRound(ctx, gs, &stats)
	if !out.op("apps round", err) {
		return nil
	}
	out.attempted += 2
	out.expect(equalAppsResults(plain, traced), "apps results changed between rounds")

	in, err := generate("citeseer", opt.seed, opt.toy)
	if err != nil {
		return err
	}
	rg, err := in.relabeled()
	if err != nil {
		return err
	}
	sp, err := traceMotif(ctx, rg, 4)
	if !out.op("traced 4-motif", err) {
		return nil
	}
	out.expect(sp.total == traced.motifTotal && fmt.Sprint(sp.counts) == fmt.Sprint(traced.motifCounts),
		"traced 4-motif counts %v != apps counts %v", sp.counts, traced.motifCounts)

	l := out.layer
	l["motif4_s"], l["fsm4_s"], l["clique6_s"] = times[0], times[1], times[2]
	l["explore.expand_s"] = sp.expand
	l["explore.visit_self_s"] = sp.visitSelf
	l["pattern.build_s"] = sp.build
	l["eigen.hash_s"] = sp.hash
	l["apps.aggregate_s"] = sp.aggregate
	l["eigen.hash_calls"] = float64(sp.total)
	l["pattern.distinct_keys"] = float64(sp.distinctKeys)
	l["eigen.classes"] = float64(len(sp.counts))
	l["memtrack.peak_bytes.motif4"] = float64(stats[0].PeakBytes)
	l["memtrack.peak_bytes.fsm4"] = float64(stats[1].PeakBytes)
	l["memtrack.peak_bytes.clique6"] = float64(stats[2].PeakBytes)
	tracedWork := sp.wall + times[1] + times[2]
	l["trace.work_s"] = tracedWork
	l["trace.work_overhead_s"] = tracedWork - sum(plainTimes)
	l["trace.tail_s"] = sp.wall
	l["trace.tail_overhead_s"] = sp.wall - plainTimes[0]
	note("traced 4-motif: wall %.4fs vs app call %.4fs", sp.wall, plainTimes[0])
	return nil
}

// motifSpans is the layer split of one traced 4-motif run. The per-worker
// spans inside the visit callback are summed over workers and divided by
// the worker count, so expand + visitSelf + build + hash + aggregate adds up
// to the wall time.
type motifSpans struct {
	wall, expand, visitSelf, build, hash, aggregate float64
	total                                           uint64
	counts                                          []uint64
	distinctKeys                                    int
}

// traceMotif rebuilds k-motif counting the way apps.MotifCount does it —
// explore.New, Expand to depth k-1, then ExpandVisit whose callback builds
// the unlabeled pattern (pattern.Reset/SetEdge + graph.HasEdge), hashes it
// (eigen.Hasher.Hash) and updates a per-worker map — timing each layer.
func traceMotif(ctx context.Context, g *graph.Graph, k int) (*motifSpans, error) {
	start := time.Now()
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		return nil, err
	}
	for e.Depth() < k-1 {
		if err := e.Expand(ctx, nil, nil); err != nil {
			return nil, err
		}
	}
	sp := &motifSpans{expand: time.Since(start).Seconds()}

	type worker struct {
		verts                  []uint32
		pat                    pattern.Pattern
		hasher                 *eigen.Hasher
		counts                 map[uint64]uint64
		keys                   map[uint64]struct{}
		build, hash, aggregate time.Duration
		_                      [64]byte // keep workers off each other's cache lines
	}
	nw := runtime.GOMAXPROCS(0)
	ws := make([]*worker, nw)
	for i := range ws {
		ws[i] = &worker{verts: make([]uint32, k), hasher: eigen.New(), counts: map[uint64]uint64{}, keys: map[uint64]struct{}{}}
	}
	visitStart := time.Now()
	err = e.ExpandVisit(ctx, nil, nil, func(wi int, emb []uint32, cand uint32) error {
		w := ws[wi]
		t0 := time.Now()
		copy(w.verts, emb)
		w.verts[k-1] = cand
		p := &w.pat
		if err := p.Reset(k); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if g.HasEdge(w.verts[i], w.verts[j]) {
					p.SetEdge(i, j)
				}
			}
		}
		key := p.AdjBits() // unlabeled: the adjacency is the whole key
		t1 := time.Now()
		h := w.hasher.Hash(p)
		t2 := time.Now()
		w.counts[h]++
		w.keys[key] = struct{}{}
		t3 := time.Now()
		w.build += t1.Sub(t0)
		w.hash += t2.Sub(t1)
		w.aggregate += t3.Sub(t2)
		return nil
	})
	if err != nil {
		return nil, err
	}
	visit := time.Since(visitStart).Seconds()

	merged := map[uint64]uint64{}
	keys := map[uint64]struct{}{}
	var build, hash, aggregate time.Duration
	for _, w := range ws {
		for h, c := range w.counts {
			merged[h] += c
		}
		for key := range w.keys {
			keys[key] = struct{}{}
		}
		build += w.build
		hash += w.hash
		aggregate += w.aggregate
	}
	aggStart := time.Now()
	for _, c := range merged {
		sp.total += c
		sp.counts = append(sp.counts, c)
	}
	sortCounts(sp.counts)
	sp.distinctKeys = len(keys)
	sp.build = build.Seconds() / float64(nw)
	sp.hash = hash.Seconds() / float64(nw)
	sp.aggregate = aggregate.Seconds()/float64(nw) + time.Since(aggStart).Seconds()
	sp.visitSelf = visit - sp.build - sp.hash - aggregate.Seconds()/float64(nw)
	sp.wall = time.Since(start).Seconds()
	return sp, nil
}
