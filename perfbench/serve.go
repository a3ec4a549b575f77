package main

import (
	"runtime"
	"time"

	"diehard/internal/exps"
	"diehard/internal/obs"
	"diehard/internal/serve"
)

const (
	// serveRoundSessions is the fixed work of one soak round: wall_s is
	// the median time a round takes.
	serveRoundSessions = 100_000
	// gentagErrorRate is the per-session chance of one injected double
	// free and one injected wild free on serve_gentag.
	gentagErrorRate = 0.002
)

// serveConfig is the soak both serve workloads run: a closed loop of two
// clients over two shards with the skewed size mix and 25% cross-worker
// frees. The load is fixed by the client count, never by a rate measured
// in the run.
func serveConfig(gentag bool) serve.Config {
	c := serve.Config{
		Shards:        2,
		Workers:       2,
		Sessions:      serveRoundSessions,
		CrossFraction: 0.25,
		FreeMode:      serve.FreeRemote,
	}
	if gentag {
		c.GenTags = true
		c.FreeMode = serve.FreeSync
		c.ErrorRate = gentagErrorRate
	}
	return c
}

// runServe runs soak rounds through serve.Run for the timed phase and
// checks each round's post-run invariants and exact accounting.
func runServe(cfg config, r *report, gentag bool) error {
	base := serveConfig(gentag)
	if cfg.tiny {
		base.Sessions = 2_000
	}
	var (
		setupS, wallS, rates []float64
		p50US, p99US         []float64
		st                   struct{ mallocs, frees, probes, retries, remoteFrees, drains, stale, pagesDirty float64 }
		rounds               float64
	)
	end := cfg.deadline()
	perr := cfg.profileTimed(func() {
		for round := 0; round == 0 || (!cfg.tiny && time.Now().Before(end)); round++ {
			c := base
			c.Seed = exps.DeriveSeed(cfg.seed, round)
			if cfg.layers {
				c.Obs = obs.NewRegistry()
			}
			runtime.GC() // start every round from the same heap state
			start := time.Now()
			res, err := serve.Run(c)
			total := time.Since(start)
			if err != nil {
				r.check(c.Sessions, c.Sessions, "round %d: %v", round, err)
				continue
			}
			bad := int64(0)
			if res.FullnessEnd != 0 || (gentag && (res.Stats.StaleFrees != uint64(res.DoubleFrees) ||
				res.Stats.IgnoredFrees != uint64(res.WildFrees))) {
				bad = c.Sessions
			}
			r.check(c.Sessions, bad, "round %d: fullness %v after the soak, %d stale frees for %d injected doubles, %d ignored frees for %d injected wild frees",
				round, res.FullnessEnd, res.Stats.StaleFrees, res.DoubleFrees, res.Stats.IgnoredFrees, res.WildFrees)

			// Everything serve.Run does outside its timed sessions: heap
			// and magazine construction, teardown and the invariant check.
			setupS = append(setupS, (total - res.Elapsed).Seconds())
			wallS = append(wallS, res.Elapsed.Seconds())
			rates = append(rates, res.SessionsPerSec)
			p50US = append(p50US, float64(res.P50)/1e3)
			p99US = append(p99US, float64(res.P99)/1e3)
			rounds++
			s := res.Stats
			st.mallocs += float64(s.Mallocs)
			st.frees += float64(s.Frees)
			st.probes += float64(s.Probes)
			st.retries += float64(s.CASRetries)
			st.remoteFrees += float64(s.RemoteFrees)
			st.drains += float64(s.RemoteDrains)
			st.stale += float64(s.StaleFrees)
			if v, ok := c.Obs.Get("vmem.pages_dirty"); ok {
				st.pagesDirty += v
			}
		}
	})
	if perr != nil {
		return perr
	}
	if rounds == 0 {
		return nil
	}
	r.set("setup_s", median(setupS), "s")
	r.set("wall_s", median(wallS), "s")
	// Every session is allocation work, so the whole round counts.
	r.set("alloc_intensive_s", median(wallS), "s")
	r.set("sessions_per_s", median(rates), "1/s")
	// A round's quantiles are histogram bucket midpoints, ~6% apart; the
	// mean of the middle half of the rounds' values moves smoothly.
	r.set("session_p50_us", midMean(p50US), "us")
	r.set("session_p99_us", midMean(p99US), "us")

	if cfg.layers {
		r.set("core.malloc_calls", st.mallocs/rounds, "count")
		r.set("core.free_calls", st.frees/rounds, "count")
		r.set("core.probes_per_malloc", st.probes/st.mallocs, "count")
		r.set("core.cas_retries_per_malloc", st.retries/st.mallocs, "count")
		drain := 0.0
		if st.drains > 0 {
			drain = st.remoteFrees / st.drains
		}
		r.set("remote.drain_batch", drain, "count")
		r.set("gen.stale_frees", st.stale/rounds, "count")
		r.set("vmem.pages_dirty", st.pagesDirty/rounds, "count")
	}
	return nil
}
