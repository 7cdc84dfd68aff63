package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// cacheCounts reads the solve cache's traffic from the attached registry.
func cacheCounts(reg *registry) (solves, memHits, diskHits float64) {
	return counterValue(reg, "solvecache_solves_total"),
		counterValue(reg, "solvecache_hits_total"),
		counterValue(reg, "diskcache_hits_total")
}

// checkCells counts cells whose values are not a usable steady state.
func checkCells(cells []cellValue) (bad int) {
	for _, c := range cells {
		ok := c.AvgDownload > 0 && c.AvgOnline > c.AvgDownload &&
			!math.IsInf(c.AvgOnline, 0) && !math.IsNaN(c.AvgOnline)
		if !ok {
			bad++
		}
	}
	return bad
}

// ---- fluid_cold ----

func fluidColdDims(in inputs) []sweepDim {
	return []sweepDim{{Name: "p", Values: in.ColdP}, {Name: "rho", Values: in.ColdRho}}
}

func fluidColdBatch(ctx context.Context, in inputs, o batchOpts) (batchResult, error) {
	var (
		r   batchResult
		reg *registry
		dir string
		sw  *fluidSweep
		err error
	)
	r.Setup, err = repeatSetup(o.Dir, func(fresh string) (err error) {
		reg = newRegistry()
		dir = fresh
		sw, err = newFluidSweep("CMFSD", fluidColdDims(in), dir, o.Workers, reg)
		return err
	})
	if err != nil {
		return r, err
	}
	n := sw.size()

	var cells []cellValue
	m := startMeter()
	if o.Trace == nil {
		res, err := sw.run(ctx)
		if err != nil {
			return r, err
		}
		cells = res.Cells
	} else if cells, err = tracedColdSweep(ctx, sw, dir, o); err != nil {
		return r, err
	}
	r.Timed = m.stop()
	r.Measured = r.Timed.Wall
	r.Cells, r.Attempted = n, n

	if len(cells) != n {
		r.fail(n, "fluid_cold: %d cells, want %d", len(cells), n)
		return r, nil
	}
	if r.Output, err = sw.renderCells(cells); err != nil {
		return r, err
	}
	if bad := checkCells(cells); bad > 0 {
		r.fail(bad, "fluid_cold: %d cells are not a steady state", bad)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*")); len(entries) != n {
		r.fail(n, "fluid_cold: disk tier holds %d entries, want %d", len(entries), n)
	}
	if o.Trace == nil {
		solves, mem, disk := cacheCounts(reg)
		r.Layer = map[string]float64{
			"runner.cache.solves": solves, "runner.cache.mem_hits": mem, "runner.cache.disk_hits": disk,
		}
		if solves != float64(n) || mem != 0 || disk != 0 {
			r.fail(n, "fluid_cold: cache saw %v solves / %v memory hits / %v disk hits, want %d/0/0", solves, mem, disk, n)
		}
	} else {
		solveMs := o.Trace.durations("scheme.Evaluate")
		_, max := minMax(solveMs)
		r.Layer = map[string]float64{"scheme.solve_ms_p50": median(solveMs), "scheme.solve_ms_max": max}
	}
	return r, nil
}

// tracedColdSweep is the cold sweep with the harness as orchestrator: per
// cell, key -> disk lookup (a miss) -> solve -> disk put -> encode, on the
// runner pool, then decode of every payload.
func tracedColdSweep(ctx context.Context, sw *fluidSweep, dir string, o batchOpts) ([]cellValue, error) {
	tr := o.Trace
	root := tr.start("bench.batch", 0, -1)
	defer tr.end(root)
	var store *solveStore
	var err error
	tr.call("runner/diskcache.Open", root, -1, func() { store, err = openSolveStore(dir) })
	if err != nil {
		return nil, err
	}
	payloads, err := runPool(ctx, sw.size(), o.Workers, func(_ context.Context, i int) (payload []byte, err error) {
		cell := tr.start("bench.cell", root, i)
		defer tr.end(cell)
		var (
			key  solveKey
			vals []float64
			fp   string
			res  *fluidSolve
		)
		tr.call("runner.JobSpec.CellKey", cell, i, func() { key, vals, err = sw.cellKey(i) })
		if err != nil {
			return nil, err
		}
		tr.call("runner.Key.Fingerprint", cell, i, func() { fp = keyFingerprint(key) })
		hit := false
		tr.call("runner/diskcache.Store.Get", cell, i, func() { res, hit = storeGet(store, fp) })
		if !hit {
			tr.call("scheme.Evaluate", cell, i, func() { res, err = solveDirect(key) })
			if err != nil {
				return nil, err
			}
			tr.call("runner/diskcache.Store.Put", cell, i, func() { err = storePut(store, fp, res) })
			if err != nil {
				return nil, err
			}
		}
		tr.call("runner.EncodeCellValue", cell, i, func() {
			payload, err = encodeCell(cellValue{Values: vals, AvgOnline: solveOnline(res), AvgDownload: solveDownload(res)})
		})
		return payload, err
	})
	if err != nil {
		return nil, err
	}
	cells := make([]cellValue, len(payloads))
	for i, p := range payloads {
		tr.call("runner.DecodeCellValue", root, i, func() { cells[i], err = decodeCell(p) })
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// fluidColdProbes counts right-hand-side evaluations of the CMFSD
// relaxation on the grid's two extreme cells and its middle one.
func fluidColdProbes(_ context.Context, in inputs, o batchOpts) (map[string]float64, error) {
	sw, err := newFluidSweep("CMFSD", fluidColdDims(in), "", 1, nil)
	if err != nil {
		return nil, err
	}
	n := sw.size()
	var evals []float64
	for _, i := range []int{0, n / 2, n - 1} {
		key, _, err := sw.cellKey(i)
		if err != nil {
			return nil, err
		}
		c, err := cmfsdRelaxation(key)
		if err != nil {
			return nil, err
		}
		evals = append(evals, float64(c))
	}
	return map[string]float64{"ode.rhs_evals_per_solve": mean(evals)}, nil
}

// ---- fluid_warm ----

func fluidWarmDims(in inputs) []sweepDim {
	return []sweepDim{
		{Name: "p", Values: in.WarmP},
		{Name: "lambda0", Values: in.WarmLambda},
		{Name: "rho", Values: in.WarmRho},
	}
}

func fluidWarmBatch(ctx context.Context, in inputs, o batchOpts) (batchResult, error) {
	var (
		r       batchResult
		dir     string
		first   *fluidResult
		want    []byte
		regs    = make([]*registry, in.WarmReplays)
		replays = make([]*fluidSweep, in.WarmReplays)
		dims    = fluidWarmDims(in)
		keys    = len(in.WarmP) * len(in.WarmLambda)
		err     error
	)
	r.Setup, err = repeatSetup(o.Dir, func(fresh string) error {
		dir = filepath.Join(fresh, "cache")
		prefill, err := newFluidSweep("MTCD", dims, dir, o.Workers, nil)
		if err != nil {
			return err
		}
		// Prefill: one closed-form solve and one Store.Put per distinct
		// key.
		if first, err = prefill.run(ctx); err != nil {
			return err
		}
		if want, err = prefill.renderCells(first.Cells); err != nil {
			return err
		}
		for i := range replays {
			regs[i] = newRegistry()
			if replays[i], err = newFluidSweep("MTCD", dims, dir, o.Workers, regs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	n := replays[0].size()

	// Timed: every replay opens the directory afresh, so its memory tier
	// starts empty and each distinct key costs one disk read.
	results := make([][]cellValue, in.WarmReplays)
	m := startMeter()
	for i, sw := range replays {
		if o.Trace == nil {
			res, err := sw.run(ctx)
			if err != nil {
				return r, err
			}
			results[i] = res.Cells
		} else if results[i], err = tracedWarmSweep(ctx, sw, dir, regs[i], o); err != nil {
			return r, err
		}
	}
	r.Timed = m.stop()
	r.Measured = r.Timed.Wall
	r.Cells = n * in.WarmReplays
	r.Attempted = r.Cells
	r.Output = want

	var solves, mem, disk float64
	for i, cells := range results {
		got, err := replays[i].renderCells(cells)
		if err != nil {
			return r, err
		}
		if !bytes.Equal(got, want) {
			r.fail(n, "fluid_warm: replay %d's table differs from the prefill run's", i)
		}
		s, h, d := cacheCounts(regs[i])
		if s != 0 || h != float64(n-keys) || d != float64(keys) {
			r.fail(n, "fluid_warm: replay %d saw %v solves / %v memory hits / %v disk hits, want 0/%d/%d", i, s, h, d, n-keys, keys)
		}
		solves, mem, disk = solves+s, mem+h, disk+d
	}
	r.Layer = map[string]float64{
		"runner.cache.solves": solves, "runner.cache.mem_hits": mem / float64(in.WarmReplays),
		"runner.cache.disk_hits": disk / float64(in.WarmReplays),
	}
	// Independent check of what the store replayed: Eq. (2), from the
	// harness's own few lines.
	bad := 0
	for _, c := range first.Cells {
		on, dl := mtcdClosedForm(paperRates.Mu, paperRates.Eta, paperRates.Gamma, paperK, c.Values[0], c.Values[1])
		if relErr(c.AvgOnline, on) > 1e-9 || relErr(c.AvgDownload, dl) > 1e-9 {
			bad++
		}
	}
	if bad > 0 {
		r.fail(bad*in.WarmReplays, "fluid_warm: %d cells differ from the closed form Eq. (2) by more than 1e-9", bad)
	}
	return r, nil
}

// tracedWarmSweep replays the grid with the harness calling the cache per
// cell. The memory tier has no public lookup of its own, so a disk read
// shows as a long runner.Cache.Evaluate span and a memory hit as a short
// one.
func tracedWarmSweep(ctx context.Context, sw *fluidSweep, dir string, reg *registry, o batchOpts) ([]cellValue, error) {
	tr := o.Trace
	root := tr.start("bench.batch", 0, -1)
	defer tr.end(root)
	var cache *solveCache
	var err error
	tr.call("runner/diskcache.Open", root, -1, func() {
		var store *solveStore
		if store, err = openSolveStore(dir); err == nil {
			cache = newDiskCache(store, reg)
		}
	})
	if err != nil {
		return nil, err
	}
	cells := make([]cellValue, sw.size())
	_, err = runPool(ctx, sw.size(), o.Workers, func(_ context.Context, i int) (_ []byte, err error) {
		cell := tr.start("bench.cell", root, i)
		defer tr.end(cell)
		var (
			key  solveKey
			vals []float64
			res  *fluidSolve
		)
		tr.call("runner.JobSpec.CellKey", cell, i, func() { key, vals, err = sw.cellKey(i) })
		if err != nil {
			return nil, err
		}
		tr.call("runner.Cache.Evaluate", cell, i, func() { res, err = cacheEvaluate(cache, key) })
		if err != nil {
			return nil, err
		}
		cells[i] = cellValue{Values: vals, AvgOnline: solveOnline(res), AvgDownload: solveDownload(res)}
		return nil, nil
	})
	return cells, err
}

// fluidWarmProbes times single calls into the layers the warm replay
// leans on: the closed-form solve, the pool, both cache tiers and the cell
// codec.
func fluidWarmProbes(ctx context.Context, in inputs, o batchOpts) (map[string]float64, error) {
	probeWall := in.ProbeWall
	sw, err := newFluidSweep("MTCD", fluidWarmDims(in), "", o.Workers, nil)
	if err != nil {
		return nil, err
	}
	n := sw.size()
	keys := make([]solveKey, n)
	for i := range keys {
		if keys[i], _, err = sw.cellKey(i); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	i := 0
	next := func() solveKey { i = (i + len(in.WarmRho)) % n; return keys[i] }

	var res *fluidSolve
	out["scheme.closedform_us"] = us(timePer(probeWall, 100, func() { res, err = solveDirect(next()) }))
	if err != nil {
		return nil, err
	}

	// Pool overhead: the same grid, a job that does nothing.
	t0 := time.Now()
	if _, err := runPool(ctx, n, o.Workers, func(context.Context, int) ([]byte, error) { return nil, nil }); err != nil {
		return nil, err
	}
	out["runner.pool_overhead_us"] = us(time.Since(t0)) / float64(n)

	mem := newMemCache()
	if _, err := cacheEvaluate(mem, keys[0]); err != nil {
		return nil, err
	}
	out["runner.cache.mem_hit_ns"] = float64(timePer(probeWall, 1000, func() { res, err = cacheEvaluate(mem, keys[0]) }))

	cv := cellValue{Values: []float64{0.5, 1, 0.5}, AvgOnline: solveOnline(res), AvgDownload: solveDownload(res)}
	out["runner.cellvalue.codec_us"] = us(timePer(probeWall, 100, func() {
		var p []byte
		if p, err = encodeCell(cv); err == nil {
			_, err = decodeCell(p)
		}
	}))
	if err != nil {
		return nil, err
	}

	// Disk tier: put distinct keys, then read them back.
	dir := filepath.Join(o.Dir, "probe-store")
	store, err := openSolveStore(dir)
	if err != nil {
		return nil, err
	}
	entries := scaled(2000, in.Scale, 20)
	fps := make([]string, entries)
	for j := range fps {
		fps[j] = fmt.Sprintf("%s probe=%d", keyFingerprint(keys[0]), j)
	}
	t0 = time.Now()
	for _, fp := range fps {
		if err := storePut(store, fp, res); err != nil {
			return nil, err
		}
	}
	out["diskcache.store.put_us"] = us(time.Since(t0)) / float64(entries)
	t0 = time.Now()
	for _, fp := range fps {
		if _, ok := storeGet(store, fp); !ok {
			return nil, fmt.Errorf("fluid_warm probe: entry %q missing", fp)
		}
	}
	out["diskcache.store.get_us"] = us(time.Since(t0)) / float64(entries)
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	out["diskcache.store.entry_bytes"] = float64(size) / float64(entries)
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// dirBytes sums the sizes of the regular files under dir — computed from
// metadata, not measured I/O.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
