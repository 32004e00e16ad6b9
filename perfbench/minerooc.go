package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"kaleido"
)

const (
	// oocBudget is miner-ooc's Engine budget: ≈1/12 of the depth-4 level.
	oocBudget = 32 << 20
	oocDepth  = 4
	// oocMaxRounds caps the timed rounds: each writes ≈130 MB of spill.
	oocMaxRounds = 24
	// oocEmbeddings is the pinned depth-4 count of mico at every seed.
	oocEmbeddings = 96834646
)

// levelSum is an order-independent summary of a level: its embedding count
// and the wrapping sum of the embeddings' hashes.
type levelSum struct {
	count, checksum uint64
}

// sumCells are per-worker accumulators, padded so workers do not share
// cache lines.
type sumCells []struct {
	levelSum
	buf []uint32 // visit scratch
	_   [24]byte
}

func newSumCells(n int) sumCells { return make(sumCells, n) }

func (c sumCells) add(w int, emb []uint32) {
	c[w].count++
	c[w].checksum += embHash(emb)
}

func (c sumCells) total() levelSum {
	var s levelSum
	for _, x := range c {
		s.count += x.count
		s.checksum += x.checksum
	}
	return s
}

// oocRound is one budgeted Expand-to-depth-4 plus ForEach.
type oocRound struct {
	expand, expandTop, scan float64
	sum                     levelSum
	peakFrac, diskRatio     float64
	miner                   minerStats
	engine                  kaleido.EngineStats
}

// minerStats is the Miner's own storage accounting, read before Close.
type minerStats struct {
	spilledParts, compressedParts, promotedParts int
	spilledBytes, spilledBytesPhysical           int64
	top                                          kaleido.LevelStat
}

// runMinerOOC mines mico to depth 4 through a Miner vended by a 32 MiB
// Engine, then scans the level with ForEach: storage does most of the work.
func runMinerOOC(ctx context.Context, opt *options, out *outcome) error {
	var g *kaleido.Graph
	if err := timeSetup(opt, out, func() (err error) {
		g, err = publicGraph("mico", opt.seed, opt.toy)
		return err
	}, nil); err != nil {
		return err
	}
	budget := int64(oocBudget)
	if opt.toy {
		budget /= 64
	}
	spill := filepath.Join(opt.workdir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}

	// Only the first round scans the level: the scan time is too bimodal
	// for a bounded metric (see README.md), so later rounds only expand.
	var first *oocRound
	var expands, tops, rsss []float64
	for start := time.Now(); first == nil || (!opt.trace && len(expands) < oocMaxRounds && roomFor(start, expands[len(expands)-1], opt.seconds)); {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		r, err := oocBudgeted(ctx, g, budget, spill, 0, first == nil)
		if !out.op("budgeted round", err) {
			return nil
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		if first == nil {
			first = r
		}
		want := uint64(oocEmbeddings)
		if opt.toy {
			want = first.sum.count
		}
		out.expect(r.sum.count == want, "depth-4 count %d, want %d", r.sum.count, want)
		rsss = append(rsss, rss)
		expands = append(expands, r.expand)
		tops = append(tops, r.expandTop)
	}
	out.attempted++ // the first round's ForEach
	if !opt.trace {
		note("expand_s per round %.3f", expands)
		note("peak_rss_mb per round %.1f", rsss)
		// Rounds peak at ≈100 or ≈150 MB by where the collections fall; the
		// upper quartile stays on the high mode, the median flips.
		out.e2e["peak_rss_mb"] = quantile(rsss, 0.75)
		out.e2e["work_s"] = median(expands)
		out.e2e["tail_s"] = median(tops)
		note("rounds=%d ooc_expand_s=%.4f expand_top_s=%.4f (medians) ooc_scan_s=%.4f ooc_peak_frac=%.4f ooc_disk_ratio=%.4f (first round)",
			len(expands), median(expands), median(tops), first.scan, first.peakFrac, first.diskRatio)
	}

	// Cross-check against an unbudgeted run that never materializes the
	// depth-4 level: visit its extensions from depth 3.
	want, err := visitSummary(ctx, g, oocDepth)
	if !out.op("unbudgeted visit", err) {
		return nil
	}
	if opt.tamper {
		want.checksum++
	}
	out.expect(first.sum == want, "budgeted depth-4 summary %+v != unbudgeted %+v", first.sum, want)

	if opt.trace {
		return traceMinerOOC(ctx, g, budget, spill, first, out)
	}
	return nil
}

// oocBudgeted runs one round on a fresh Engine so each round's peak and
// spill counters are its own. threads 0 is the default worker count.
func oocBudgeted(ctx context.Context, g *kaleido.Graph, budget int64, spill string, threads int, scan bool) (*oocRound, error) {
	en := &kaleido.Engine{MemoryBudget: budget, SpillDir: spill}
	r, err := oocRun(ctx, en, g, threads, scan)
	if err != nil {
		return nil, err
	}
	r.engine = en.Stats()
	r.peakFrac = float64(r.engine.PeakBytes) / float64(budget)
	top := r.miner.top
	if logical := top.ResidentBytesLogical + top.DiskBytes; logical > 0 {
		r.diskRatio = float64(top.DiskBytesPhysical) / float64(logical)
	}
	return r, nil
}

// oocRun expands a Miner from en to depth 4, timing every Expand and the
// last one on its own, then, with scan, times a checksumming ForEach; without
// it the summary carries the count only.
func oocRun(ctx context.Context, en *kaleido.Engine, g *kaleido.Graph, threads int, scan bool) (r *oocRound, err error) {
	m, err := en.NewMiner(ctx, g, kaleido.VertexInduced, kaleido.Config{Threads: threads})
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := m.Close(); err == nil && cerr != nil {
			r, err = nil, cerr
		}
	}()
	r = &oocRound{}
	start := time.Now()
	for m.Depth() < oocDepth {
		t := time.Now()
		if err := m.Expand(ctx, nil); err != nil {
			return nil, err
		}
		r.expandTop = time.Since(t).Seconds()
	}
	r.expand = time.Since(start).Seconds()

	r.sum.count = uint64(m.Count())
	if scan {
		nw := threads
		if nw <= 0 {
			nw = runtime.GOMAXPROCS(0)
		}
		cells := newSumCells(nw)
		start = time.Now()
		err = m.ForEach(ctx, func(w int, emb []uint32) error {
			cells.add(w, emb)
			return nil
		})
		r.scan = time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		r.sum = cells.total()
	}
	levels := m.LevelStats()
	if len(levels) == 0 {
		return nil, fmt.Errorf("miner reports no levels")
	}
	r.miner = minerStats{
		spilledParts: m.SpilledParts(), compressedParts: m.CompressedParts(), promotedParts: m.PromotedParts(),
		spilledBytes: m.SpilledBytes(), spilledBytesPhysical: m.SpilledBytesPhysical(),
		top: levels[len(levels)-1],
	}
	return r, nil
}

// visitSummary summarizes the depth-k level of an unbudgeted Miner without
// storing it: Expand to depth k-1, then visit every extension.
func visitSummary(ctx context.Context, g *kaleido.Graph, k int) (levelSum, error) {
	m, err := g.NewMiner(ctx, kaleido.VertexInduced, kaleido.Config{})
	if err != nil {
		return levelSum{}, err
	}
	defer m.Close()
	for m.Depth() < k-1 {
		if err := m.Expand(ctx, nil); err != nil {
			return levelSum{}, err
		}
	}
	cells := newSumCells(runtime.GOMAXPROCS(0))
	err = m.ExpandVisit(ctx, nil, func(w int, emb []uint32, cand uint32) error {
		c := &cells[w]
		c.buf = append(append(c.buf[:0], emb...), cand)
		cells.add(w, c.buf)
		return nil
	})
	return cells.total(), err
}

// traceMinerOOC is the traced run's storage decomposition: the budgeted
// round against the same calls unbudgeted, and the scan on one thread.
func traceMinerOOC(ctx context.Context, g *kaleido.Graph, budget int64, spill string, r *oocRound, out *outcome) error {
	traced, err := oocBudgeted(ctx, g, budget, spill, 0, true)
	if !out.op("budgeted round", err) {
		return nil
	}
	out.attempted++
	out.expect(traced.sum == r.sum, "depth-4 summary changed between rounds")

	oneThread, err := oocBudgeted(ctx, g, budget, spill, 1, true)
	if !out.op("one-thread round", err) {
		return nil
	}
	out.attempted++
	out.expect(oneThread.sum == r.sum, "one-thread depth-4 summary %+v != %+v", oneThread.sum, r.sum)

	inmem, err := oocRun(ctx, &kaleido.Engine{}, g, 0, true)
	if !out.op("unbudgeted round", err) {
		return nil
	}
	out.attempted++
	out.expect(inmem.sum == r.sum, "unbudgeted depth-4 summary %+v != budgeted %+v", inmem.sum, r.sum)

	l := out.layer
	l["ooc_expand_s"] = traced.expand
	l["ooc_scan_s"] = traced.scan
	l["ooc_peak_frac"] = traced.peakFrac
	l["ooc_disk_ratio"] = traced.diskRatio
	l["explore.expand_top_s"] = traced.expandTop
	l["explore.expand_top_inmem_s"] = inmem.expandTop
	l["storage.expand_delta_s"] = traced.expandTop - inmem.expandTop
	l["storage.scan_delta_s"] = traced.scan - inmem.scan
	l["kaleido.scan_1t_s"] = oneThread.scan
	l["kaleido.scan_scaling"] = oneThread.scan / traced.scan
	ms, es := traced.miner, traced.engine
	l["storage.spilled_parts"] = float64(ms.spilledParts)
	l["storage.compressed_parts"] = float64(ms.compressedParts)
	l["storage.promoted_parts"] = float64(ms.promotedParts)
	l["storage.spilled_bytes_logical"] = float64(ms.spilledBytes)
	l["storage.spilled_bytes_physical"] = float64(ms.spilledBytesPhysical)
	l["storage.read_bytes"] = float64(es.ReadBytes)
	l["storage.write_bytes"] = float64(es.WriteBytes)
	l["storage.io_retries"] = float64(es.IORetries)
	l["storage.top_parts_mem"] = float64(ms.top.MemParts - ms.top.CompressedParts)
	l["storage.top_parts_cmem"] = float64(ms.top.CompressedParts)
	l["storage.top_parts_disk"] = float64(ms.top.DiskParts)
	l["memtrack.peak_bytes"] = float64(es.PeakBytes)
	l["trace.work_s"] = traced.expand + traced.scan
	l["trace.work_overhead_s"] = traced.expand + traced.scan - (r.expand + r.scan)
	l["trace.tail_s"] = traced.expandTop
	l["trace.tail_overhead_s"] = traced.expandTop - r.expandTop
	return nil
}
