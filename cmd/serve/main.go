// Command serve runs the allocator-as-a-service soak (internal/serve)
// and prints its grade — sustained sessions/sec and p50/p99/p999
// session latency:
//
//	go run ./cmd/serve
//
// Three soaks run: closed-loop saturation with synchronous cross-worker
// frees, the same with remote-free rings, and an open-loop Poisson+burst
// run at roughly half the measured saturation throughput (so the tail
// percentiles grade queueing behavior, not just service time). With
// -smoke it instead runs a seconds-long deterministic soak in both free
// modes and asserts zero invariant violations and a generous p99
// ceiling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"diehard/internal/obs"
	"diehard/internal/serve"
)

func main() {
	var (
		smoke    = flag.Bool("smoke", false, "run the seconds-long CI soak (both free modes, zero-violation + p99 gate)")
		sessions = flag.Int64("sessions", 400_000, "sessions per soak")
		shards   = flag.Int("shards", 8, "heap shards")
		workers  = flag.Int("workers", 8, "worker goroutines")
		withObs  = flag.Bool("obs", false, "attach the telemetry plane (metrics registry + flight recorder) and dump a JSON snapshot to stdout; with -smoke, also gate the acceptance shape")
		httpAddr = flag.String("http", "", "serve /metrics, /trace, and /debug/pprof on this address while the soaks run (implies -obs)")
	)
	flag.Parse()

	var (
		reg *obs.Registry
		rec *obs.Recorder
	)
	if *withObs || *httpAddr != "" {
		reg = obs.NewRegistry()
		rec = obs.NewRecorder(4096)
	}
	if *httpAddr != "" {
		go serveHTTP(*httpAddr, reg, rec)
	}

	if *smoke {
		runSmoke(reg, rec)
		return
	}

	base := serve.Config{
		Shards:   *shards,
		Workers:  *workers,
		Sessions: *sessions,
		Seed:     0x5e44e,
		Obs:      reg,
		Trace:    rec,
	}
	report := func(name string, res *serve.Result) {
		fmt.Printf("%-22s %10.0f sessions/s  p50 %8dns  p99 %8dns  p999 %8dns\n",
			name, res.SessionsPerSec, res.P50, res.P99, res.P999)
	}

	cfg := base
	cfg.FreeMode = serve.FreeSync
	sync, err := serve.Run(cfg)
	if err != nil {
		fatal(err)
	}
	report("serve_soak_sat_sync", sync)

	cfg = base
	cfg.FreeMode = serve.FreeRemote
	remote, err := serve.Run(cfg)
	if err != nil {
		fatal(err)
	}
	report("serve_soak_sat_remote", remote)

	// Open loop at ~50% of the just-measured saturation throughput,
	// with bursts: the percentiles now include queueing delay from the
	// scheduled Poisson arrivals.
	cfg = base
	cfg.FreeMode = serve.FreeRemote
	cfg.Rate = remote.SessionsPerSec * 0.5
	cfg.BurstProb = 0.02
	cfg.BurstLen = 64
	open, err := serve.Run(cfg)
	if err != nil {
		fatal(err)
	}
	report("serve_soak_open_burst", open)

	if reg != nil {
		if err := obs.WriteDump(os.Stdout, reg, rec); err != nil {
			fatal(err)
		}
	}
}

// serveHTTP exposes the live telemetry plane while the soaks run:
// /metrics and /trace render the registry and the merged flight-
// recorder timeline as JSON, /debug/pprof the usual Go profiles. The
// process exits with the soaks; point a scraper at it during long
// runs.
func serveHTTP(addr string, reg *obs.Registry, rec *obs.Recorder) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc, err := json.Marshal(reg.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(enc)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc, err := rec.TraceJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(enc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "serve: http: %v\n", err)
	}
}

// runSmoke is the CI gate: a deterministic seconds-long soak in each
// free mode must complete with zero invariant violations (serve.Run
// fails otherwise), zero leftover fullness, and a p99 under a ceiling
// generous enough for a loaded 1-CPU runner yet low enough to catch a
// pathological drain stall (seconds-scale tail).
func runSmoke(reg *obs.Registry, rec *obs.Recorder) {
	const p99Ceiling = 250 * time.Millisecond
	for _, mode := range []struct {
		name string
		fm   serve.FreeMode
	}{
		{"sync", serve.FreeSync},
		{"remote", serve.FreeRemote},
	} {
		res, err := serve.Run(serve.Config{
			Shards:   4,
			Workers:  4,
			Sessions: 120_000,
			Seed:     0x5e44e,
			FreeMode: mode.fm,
		})
		if err != nil {
			fatal(fmt.Errorf("smoke %s: %w", mode.name, err))
		}
		fmt.Printf("smoke %-6s %10.0f sessions/s  p50 %8dns  p99 %8dns  p999 %8dns\n",
			mode.name, res.SessionsPerSec, res.P50, res.P99, res.P999)
		if res.FullnessEnd != 0 {
			fatal(fmt.Errorf("smoke %s: leaked %v fullness", mode.name, res.FullnessEnd))
		}
		if res.P99 > p99Ceiling.Nanoseconds() {
			fatal(fmt.Errorf("smoke %s: p99 %v exceeds %v", mode.name, time.Duration(res.P99), p99Ceiling))
		}
		if mode.fm == serve.FreeRemote && res.Stats.RemoteFrees == 0 {
			fatal(fmt.Errorf("smoke remote: ring never used"))
		}
	}
	if reg != nil {
		smokeObs(reg, rec)
	}
	fmt.Println("serve smoke passed")
}

// smokeObs is the telemetry acceptance gate: a short mitigated
// fault-scheduled soak with the full plane attached must leave live
// metrics from at least four layers (vmem, core, serve, heal) in the
// registry and a non-empty, stamp-ordered merged trace — then the
// snapshot is dumped so CI logs carry the evidence.
func smokeObs(reg *obs.Registry, rec *obs.Recorder) {
	plan := &serve.FaultPlan{
		OverflowObject: 3, OverflowReach: 24, OverflowEvery: 2,
		DanglingObject: 9, DanglingEvery: 2,
	}
	_, err := serve.Run(serve.Config{
		Shards:   2,
		Workers:  2,
		HeapSize: 2 << 20,
		Sessions: 4000,
		Seed:     0x5e44e,
		FreeMode: serve.FreeRemote,
		Faults:   plan,
		Mitigate: serve.StaticMitigator(
			map[int]int{plan.OverflowObject: plan.OverflowReach + 8},
			map[int]bool{plan.DanglingObject: true},
		),
		Obs:   reg,
		Trace: rec,
	})
	if err != nil {
		fatal(fmt.Errorf("smoke obs: %w", err))
	}
	for _, m := range []string{"vmem.loads", "core.mallocs", "serve.sessions", "heal.quarantined_frees"} {
		v, ok := reg.Get(m)
		if !ok {
			fatal(fmt.Errorf("smoke obs: metric %s missing from registry", m))
		}
		if v == 0 && m != "heal.corruptions" {
			fatal(fmt.Errorf("smoke obs: metric %s reads 0 after the soak", m))
		}
	}
	evs := rec.Snapshot()
	if len(evs) == 0 {
		fatal(fmt.Errorf("smoke obs: flight recorder captured nothing"))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq >= evs[i].Seq {
			fatal(fmt.Errorf("smoke obs: merged trace out of order at %d", i))
		}
	}
	if err := obs.WriteDump(os.Stdout, reg, rec); err != nil {
		fatal(err)
	}
	fmt.Printf("smoke obs    %d metrics, %d trace events, timeline ordered\n",
		len(reg.Snapshot().Metrics), len(evs))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	os.Exit(1)
}
