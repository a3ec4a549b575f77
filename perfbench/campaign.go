package main

import (
	"runtime"
	"time"

	"diehard/internal/exps"
)

// campaignWorkers is the parallel engine's width on the timed tables.
const campaignWorkers = 2

// goldenParams and goldenHashes are the tiny detection table and the
// per-cell OutputHash values recorded for it in internal/exps (the
// probabilistic cells, workers = 1). The set-up checks them first, so a
// campaign whose placement drifted fails before anything is timed.
func goldenParams() exps.DetectParams {
	return exps.DetectParams{
		Trials:      4,
		Layouts:     4,
		Multipliers: []float64{2},
		HeapSize:    1 << 20,
		Allocs:      80,
		Live:        16,
		Seed:        0xFACE,
	}
}

var goldenHashes = map[exps.DetectError]uint64{
	exps.DetectOverflow: 0x2a79411f06e748cb,
	exps.DetectDangling: 0xc529cc2338e92028,
	exps.DetectUninit:   0xe88b9d83855ef1e5,
}

// campaignParams is the timed table: the golden table's shape, seeded
// from the workload seed. A table takes tens of milliseconds, so a run
// times hundreds of them and the session quantiles have windows of
// sessionWindow tables to come from.
func campaignParams(seed uint64) exps.DetectParams {
	p := goldenParams()
	p.Seed = exps.DeriveSeed(seed, 0)
	return p
}

// runCampaign runs the detection table at two workers for the timed
// phase. Set-up checks the recorded golden table and runs the seeded
// table once at one worker; every timed table must reproduce that
// reference cell for cell.
func runCampaign(cfg config, r *report) error {
	params := campaignParams(cfg.seed)
	var (
		ref          *exps.DetectionTable
		setupS, w1S  []float64
		tableS, rate []float64
	)
	for i := 0; i < cfg.setupReps(); i++ {
		start := time.Now()
		golden, err := exps.RunDetectionTable(goldenParams(), 1)
		if err != nil {
			return err
		}
		n, bad := int64(0), int64(0)
		for _, c := range golden.Cells {
			if want, ok := goldenHashes[c.Error]; ok && c.Policy == exps.PolicyProbabilistic {
				n++
				if c.OutputHash != want {
					bad++
				}
			}
		}
		if n != int64(len(goldenHashes)) {
			bad = int64(len(goldenHashes))
		}
		r.check(int64(len(goldenHashes)), bad, "golden detection table: %d of %d recorded cells differ", bad, len(goldenHashes))

		w1 := time.Now()
		if ref, err = exps.RunDetectionTable(params, 1); err != nil {
			return err
		}
		w1S = append(w1S, time.Since(w1).Seconds())
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var runErr error
	end := cfg.deadline()
	perr := cfg.profileTimed(func() {
		for i := 0; i == 0 || (!cfg.tiny && time.Now().Before(end)); i++ {
			runtime.GC() // start every table from the same heap state
			start := time.Now()
			table, err := exps.RunDetectionTable(params, campaignWorkers)
			d := time.Since(start).Seconds()
			if err != nil {
				runErr = err
				return
			}
			bad := int64(0)
			for k, c := range table.Cells {
				if k >= len(ref.Cells) || c.OutputHash != ref.Cells[k].OutputHash {
					bad++
				}
			}
			r.check(int64(len(ref.Cells)), bad, "table %d: %d cells differ from the one-worker reference", i, bad)
			tableS = append(tableS, d)
			rate = append(rate, 1/d)
		}
	})
	if perr != nil {
		return perr
	}
	if runErr != nil {
		return runErr
	}

	r.set("setup_s", median(setupS), "s")
	wall := median(tableS)
	r.set("wall_s", wall, "s")
	// Every trial is an allocation-driven program, so the whole table counts.
	r.set("alloc_intensive_s", wall, "s")
	r.set("sessions_per_s", median(rate), "1/s")
	us := make([]float64, len(tableS))
	for i, s := range tableS {
		us[i] = s * 1e6
	}
	r.set("session_p50_us", windowQuantile(us, sessionWindow, 0.50), "us")
	r.set("session_p99_us", windowQuantile(us, sessionWindow, 0.99), "us")
	if cfg.layers {
		r.set("exps.parallel_efficiency", median(w1S)/(campaignWorkers*wall), "ratio")
	}
	return nil
}
