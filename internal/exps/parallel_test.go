package exps

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// Determinism tests for the parallel campaign engine (DESIGN.md §7):
// fanning a campaign across workers must not change a single byte of its
// result, because every trial's randomness derives from its trial index
// and results are reduced in index order.

func TestErrorTableParallelDeterminism(t *testing.T) {
	skipIfShort(t)
	seq, err := RunErrorTable(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunErrorTable(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("error table differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq.Cell, par.Cell)
	}
}

func TestInjectionParallelDeterminism(t *testing.T) {
	seq, err := RunFaultInjection("espresso", KindDieHard, InjectDangling, 8, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFaultInjection("espresso", KindDieHard, InjectDangling, 8, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("injection campaign differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestSquidParallelDeterminism(t *testing.T) {
	kinds := []string{KindMalloc, KindDieHard}
	seq, err := RunSquidExperiment(kinds, 4, 300, 24<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSquidExperiment(kinds, 4, 300, 24<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("squid campaign differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestReplicatedScalingParallelDeterminism(t *testing.T) {
	// The §7.2.3 sweep on the campaign engine: every deterministic field
	// of every point — seeds, fates, and the hash of the voted output —
	// must be identical whether the points run one at a time or fanned
	// out. Wall times are host measurements and are excluded.
	counts := []int{1, 2, 3}
	seq, err := RunReplicatedScaling("espresso", counts, 1, 12<<20, 0xca1e, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunReplicatedScaling("espresso", counts, 1, 12<<20, 0xca1e, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		a, b := seq[i], par[i]
		a.Wall, a.RelativeToOne = 0, 0
		b.Wall, b.RelativeToOne = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("point %d differs between workers=1 and workers=8:\nseq: %+v\npar: %+v", i, a, b)
		}
		if a.OutputHash == 0 {
			t.Errorf("point %d committed no output", i)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 0) == DeriveSeed(1, 1) || DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("DeriveSeed collides on adjacent inputs")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		s := DeriveSeed(0, i)
		if s == 0 {
			t.Fatal("DeriveSeed produced 0, which would draw entropy downstream")
		}
		if seen[s] {
			t.Fatal("DeriveSeed collision within one campaign")
		}
		seen[s] = true
	}
}

func TestMapTrialsOrderAndErrors(t *testing.T) {
	// Results land by index regardless of claim order.
	got, err := MapTrials(100, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
	// First error wins and cancels the rest.
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err = MapTrials(1000, 4, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Error("error did not cancel remaining trials")
	}
	// Degenerate inputs.
	if r, err := MapTrials(0, 4, func(i int) (int, error) { return 0, nil }); err != nil || len(r) != 0 {
		t.Fatalf("empty campaign: %v %v", r, err)
	}
	if w := Workers(0); w < 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
}
