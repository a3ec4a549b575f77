package diehard

import (
	"sort"
	"strings"
	"testing"

	"diehard/internal/heal"
	"diehard/internal/obs"
	"diehard/internal/replicate"
	"diehard/internal/serve"
)

// metricSchema is the pinned metric-name schema: for each publisher, the
// sorted set of names it registers, each with its sorted label keys in
// braces (label values, such as worker and shard indexes, are left
// open, as are trace event kinds). Renaming, adding or dropping a
// metric is a deliberate edit here.
var metricSchema = map[string][]string{
	// The mitigated fault soak of `cmd/serve -smoke -obs`: the sharded
	// heap's core.* gauges, the shared space's vmem.*, serve's own and
	// the mitigation's heal.* counters.
	"serve fault soak": {
		"core.cas_retries", "core.failed_mallocs", "core.frees",
		"core.ignored_frees", "core.live_bytes", "core.live_objects",
		"core.mallocs", "core.peak_live_bytes", "core.probes",
		"core.quarantine_released", "core.quarantined",
		"core.remote_drains", "core.remote_frees", "core.retired_slots",
		"core.shard_live_objects{shard}", "core.stale_frees",
		"heal.corruptions", "heal.quarantined_frees",
		"serve.session_ns{worker}", "serve.sessions",
		"vmem.faults", "vmem.loads", "vmem.pages_dirty", "vmem.pages_mapped",
		"vmem.pages_peak", "vmem.stores", "vmem.tlb_hits", "vmem.tlb_misses",
	},
	// A healed supervisor run: the live epoch's detect.* gauges and the
	// supervisor's heal.* tally and cycle histogram.
	"heal supervisor": {
		"detect.allocs", "detect.cadence", "detect.canary_audits",
		"detect.evidence", "detect.evidence_dropped", "detect.heap_checks",
		"heal.cycle_ns", "heal.evidence_windows", "heal.failures",
		"heal.min_cadence", "heal.pads_installed", "heal.quarantine_sites",
		"heal.restarts",
	},
	// The pipelined voter's counters.
	"replicated run": {
		"replicate.kills", "replicate.pipeline_depth_peak",
		"replicate.restarts", "replicate.rounds",
	},
	// A facade DetectCanaries heap: one heap's core.* gauges and its
	// detector's detect.* gauges.
	"detection heap": {
		"core.cas_retries", "core.failed_mallocs", "core.frees",
		"core.ignored_frees", "core.live_bytes", "core.live_objects",
		"core.mallocs", "core.peak_live_bytes", "core.probes",
		"core.quarantine_released", "core.quarantined",
		"core.remote_drains", "core.remote_frees", "core.retired_slots",
		"core.stale_frees",
		"detect.allocs", "detect.cadence", "detect.canary_audits",
		"detect.evidence", "detect.evidence_dropped", "detect.heap_checks",
	},
}

// metricNames returns reg's schema: sorted unique name{label keys}.
func metricNames(reg *obs.Registry) []string {
	set := map[string]bool{}
	for _, m := range reg.Snapshot().Metrics {
		name := m.Name
		if len(m.Labels) > 0 {
			keys := make([]string, 0, len(m.Labels))
			for k := range m.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			name += "{" + strings.Join(keys, ",") + "}"
		}
		set[name] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestMetricNameSchema runs each publisher briefly with a registry
// attached and compares the names it registered with metricSchema.
func TestMetricNameSchema(t *testing.T) {
	publishers := map[string]func(reg *obs.Registry) error{
		"serve fault soak": func(reg *obs.Registry) error {
			plan := &serve.FaultPlan{
				OverflowObject: 3, OverflowReach: 24, OverflowEvery: 2,
				DanglingObject: 9, DanglingEvery: 2,
			}
			_, err := serve.Run(serve.Config{
				Shards: 2, Workers: 2, HeapSize: 2 << 20, Sessions: 400, Seed: 0x5e44e,
				FreeMode: serve.FreeRemote,
				Faults:   plan,
				Mitigate: serve.StaticMitigator(
					map[int]int{plan.OverflowObject: plan.OverflowReach + 8},
					map[int]bool{plan.DanglingObject: true},
				),
				Obs:   reg,
				Trace: obs.NewRecorder(256),
			})
			return err
		},
		"heal supervisor": func(reg *obs.Registry) error {
			_, err := heal.Run(heal.Config{
				Seed: 0x4EA1,
				Schedule: heal.Schedule{
					Sites: 48, ObjectSize: 48,
					OverflowSite: 7, OverflowReach: 24, OverflowEvery: 3,
					DanglingSite: 29, DanglingEvery: 4,
				},
				Cycles: 40, EpochCycles: 20, Heal: true,
				Obs: reg,
			})
			return err
		},
		"replicated run": func(reg *obs.Registry) error {
			prog := func(ctx *Context) error {
				p, err := ctx.Alloc.Malloc(64)
				if err != nil {
					return err
				}
				if err := ctx.Mem.WriteBytes(p, ctx.Input); err != nil {
					return err
				}
				_, err = ctx.Out.Write(ctx.Input)
				return err
			}
			_, err := replicate.Run(prog, []byte("schema"), replicate.Options{
				Replicas: 3, HeapSize: 12 << 20, Seed: 4, Obs: reg,
			})
			return err
		},
		"detection heap": func(reg *obs.Registry) error {
			h, err := NewHeap(HeapOptions{HeapSize: 12 << 20, Seed: 5, DetectCanaries: true})
			if err != nil {
				return err
			}
			defer h.Close()
			h.PublishMetrics(reg)
			return nil
		},
	}
	for name, run := range publishers {
		reg := obs.NewRegistry()
		if err := run(reg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := metricNames(reg), metricSchema[name]
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s publishes\n\t%s\npinned\n\t%s", name, strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
		}
	}
}
