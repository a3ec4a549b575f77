// Command perfbench runs one workload of the repository benchmark and
// prints what it measured as one JSON line on standard output.
//
// It is not meant to be run by hand: run.py builds it, starts one fresh
// process per workload, and turns the line into the benchmark's result.
// README.md in this directory says why each workload exists and which
// layer each metric belongs to.
//
//	perfbench -workload fig5 -seed 7 -seconds 10 [-layers] [-cpuprofile f] [-tiny]
//
// With -layers the workload also times the public calls it makes into
// each layer and reads each layer's public counters; those numbers are
// for the traced run only, because the timing wrappers slow it down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64 // length of the timed phase
	layers  bool    // time calls into each layer and read its counters
	tiny    bool    // self-test size: one short round of each phase
	profile *os.File
}

// deadline is the end of a timed phase that starts now.
func (c config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// setupReps is how many times a workload repeats its set-up so that
// setup_s can be a median; the self-test sets up once.
func (c config) setupReps() int {
	if c.tiny {
		return 1
	}
	return 5
}

// profileTimed runs the timed phase under the CPU profiler when one was
// requested, so the per-file shares describe the timed phase only.
func (c config) profileTimed(phase func()) error {
	if c.profile == nil {
		phase()
		return nil
	}
	if err := pprof.StartCPUProfile(c.profile); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	phase()
	pprof.StopCPUProfile()
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the workload's output: the correctness tally and every
// metric it measured, by name.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Problems  []string          `json:"problems,omitempty"`
	Stamp     stamp             `json:"stamp"`
}

// stamp is the host and toolchain a measurement was taken with.
type stamp struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check counts n attempted operations, of which failed went wrong, and
// keeps the first few descriptions of what went wrong.
func (r *report) check(n, failed int64, format string, args ...any) {
	r.Attempted += n
	if failed == 0 {
		return
	}
	r.Failed += failed
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config, *report) error{
	"fig5":         runFig5,
	"serve_mag":    func(c config, r *report) error { return runServe(c, r, false) },
	"serve_gentag": func(c config, r *report) error { return runServe(c, r, true) },
	"campaign":     runCampaign,
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// midMean is the mean of the middle half of xs (the interquartile
// mean): as robust as the median to a few disturbed samples, but it
// moves smoothly when the samples are coarsely quantized.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// sessionWindow is how many consecutive kernel runs of fig5 make one
// window for the session latency quantiles (serve uses its rounds and
// campaign its own window). A window spans about a second of the run.
const sessionWindow = 100

// windowQuantile splits xs, in the order the sessions ran, into windows
// of n and returns the interquartile mean of the windows' q-quantiles.
// A host stall that slows a few sessions lands in one window and is
// discarded with it; a slowdown that lasts the whole run is not.
func windowQuantile(xs []float64, n int, q float64) float64 {
	var per []float64
	for lo := 0; lo < len(xs); lo += n {
		per = append(per, quantile(xs[lo:min(lo+n, len(xs))], q))
	}
	return midMean(per)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func main() {
	name := flag.String("workload", "", "workload to run: fig5, serve_mag, serve_gentag or campaign")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	layers := flag.Bool("layers", false, "time calls into each layer and read layer counters")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
	tiny := flag.Bool("tiny", false, "self-test size")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, layers: *layers, tiny: *tiny}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		cfg.profile = f
	}
	r := &report{
		Metrics: make(map[string]metric),
		Stamp:   stamp{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
	}
	err := run(cfg, r)
	if cfg.profile != nil {
		if cerr := cfg.profile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close cpu profile: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	r.set("max_rss_mb", maxRSSMB(), "MB")
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
