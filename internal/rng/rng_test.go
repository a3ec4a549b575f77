package rng

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicStream(t *testing.T) {
	a := NewSeeded(12345)
	b := NewSeeded(12345)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := NewSeeded(1)
	b := NewSeeded(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincide on %d/1000 draws", same)
	}
}

func TestZeroSeedHalvesReplaced(t *testing.T) {
	// A zero lag would make the MWC stream collapse; NewSeeded must
	// substitute the default constants.
	r := NewSeeded(0)
	seen := make(map[uint32]bool)
	for i := 0; i < 100; i++ {
		seen[r.Next()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("zero-seeded stream looks degenerate: %d distinct of 100", len(seen))
	}
	// So are the halves that sit on, or step onto, a fixed point: p in
	// either half, and the two w halves one draw takes to p.
	for _, c := range []struct{ z, w uint32 }{
		{modZ, 1}, {1, modW}, {1, 0x8C9FFFFE}, {1, 0xD2EFFFFD}, {modZ, modW}, {0, 0xD2EFFFFD},
	} {
		r := NewSeeded(uint64(c.z)<<32 | uint64(c.w))
		if c.z == 0 || c.z == modZ {
			if r.z != defaultZ {
				t.Errorf("z half %#x kept as %#x, want the default", c.z, r.z)
			}
		}
		if c.w == 0 || c.w == modW || c.w == 0x8C9FFFFE || c.w == 0xD2EFFFFD {
			if r.w != defaultW {
				t.Errorf("w half %#x kept as %#x, want the default", c.w, r.w)
			}
		}
		seen := make(map[uint64]bool)
		for i := 0; i < 100; i++ {
			r.Next()
			seen[r.Seed()] = true
		}
		if len(seen) < 100 {
			t.Errorf("seed %#x/%#x: %d distinct states of 100", c.z, c.w, len(seen))
		}
	}
}

// TestStuckSeedHalvesAreExactlyTheReplacedOnes checks the replaced list
// is complete: among raw halves, exactly zero and p in z, and zero, p
// and the two listed values in w, are still on a fixed point after two
// draws. Halves from every 16-bit high part are sampled exhaustively
// near the candidates and at random elsewhere.
func TestStuckSeedHalvesAreExactlyTheReplacedOnes(t *testing.T) {
	stuck := func(x, a, p uint32) bool {
		for i := 0; i < 2; i++ {
			x = a*(x&65535) + x>>16
		}
		return x == 0 || x == p
	}
	want := map[uint32]bool{0: true, modZ: true}
	for c := uint32(0); c < 1<<16; c++ {
		for _, d := range []uint32{0, 1, 65533, 65534, 65535, c * 2654435761 & 65535} {
			x := c<<16 | d
			if stuck(x, 36969, modZ) != want[x] {
				t.Errorf("z half %#x: stuck=%v", x, !want[x])
			}
		}
	}
	want = map[uint32]bool{0: true, modW: true, 0x8C9FFFFE: true, 0xD2EFFFFD: true}
	for c := uint32(0); c < 1<<16; c++ {
		for _, d := range []uint32{0, 1, 65533, 65534, 65535, c * 2654435761 & 65535} {
			x := c<<16 | d
			if stuck(x, 18000, modW) != want[x] {
				t.Errorf("w half %#x: stuck=%v", x, !want[x])
			}
		}
	}
}

// TestFillJumpConstants recomputes the lane jumps with a plain loop:
// a^256 mod p for each half.
func TestFillJumpConstants(t *testing.T) {
	for _, c := range []struct{ a, p, jump uint64 }{{36969, modZ, jumpZ}, {18000, modW, jumpW}} {
		x := uint64(1)
		for i := 0; i < laneBytes/4; i++ {
			x = x * c.a % c.p
		}
		if x != c.jump {
			t.Errorf("%d^256 mod %d = %#x, constant %#x", c.a, c.p, x, c.jump)
		}
	}
}

// TestFillMatchesNext holds Fill to the loop it replaces: the same
// bytes and the same final state, for lengths around the 4 KB block,
// for raw states in and out of [1, p−1] (including fixed points and
// the halves that step onto them), and for fills continued across
// calls.
func TestFillMatchesNext(t *testing.T) {
	lengths := []int{0, 3, 4, 4092, 4096, 4100, 3*4096 + 12}
	var halves []struct{ z, w uint32 }
	for _, z := range []uint32{0, 1, modZ - 1, modZ, modZ + 1, 1<<32 - 1} {
		for _, w := range []uint32{0, 1, modW - 1, modW, modW + 1, 0x8C9FFFFE, 0xD2EFFFFD, 1<<32 - 1} {
			halves = append(halves, struct{ z, w uint32 }{z, w})
		}
	}
	seeds := NewSeeded(0xF111)
	for i := 0; i < 1000; i++ {
		halves = append(halves, struct{ z, w uint32 }{seeds.Next(), seeds.Next()})
	}
	loop := func(r *MWC, b []byte) {
		for i := 0; i+4 <= len(b); i += 4 {
			binary.LittleEndian.PutUint32(b[i:], r.Next())
		}
	}
	for k, h := range halves {
		lens := lengths
		if k >= 100 {
			lens = lengths[len(lengths)-2:] // the random states: lengths that reach the lanes
		}
		for _, n := range lens {
			fill, next := &MWC{h.z, h.w}, &MWC{h.z, h.w}
			got, want := make([]byte, n), make([]byte, n)
			// Two calls: the second continues from where the first
			// left the state, one ragged word and a block later.
			fill.Fill(got[:n/2])
			fill.Fill(got[n/2:])
			loop(next, want[:n/2])
			loop(next, want[n/2:])
			if !bytes.Equal(got, want) {
				t.Fatalf("state %#x/%#x, %d bytes: Fill differs from the Next loop", h.z, h.w, n)
			}
			if *fill != *next {
				t.Fatalf("state %#x/%#x, %d bytes: Fill left %+v, the Next loop %+v", h.z, h.w, n, *fill, *next)
			}
		}
	}
}

func TestUintnRange(t *testing.T) {
	r := NewSeeded(99)
	for _, n := range []uint64{1, 2, 3, 7, 8, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			if v := r.Uintn(n); v >= n {
				t.Fatalf("Uintn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUintnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Uintn(0)")
		}
	}()
	NewSeeded(1).Uintn(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewSeeded(1).Intn(0)
}

func TestUintnUniformity(t *testing.T) {
	// Chi-squared test over 16 buckets; loose bound, just catches gross
	// modulo bias or a broken generator.
	r := NewSeeded(7)
	const buckets = 16
	const draws = 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Uintn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is about 37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-squared %f too high; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewSeeded(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %f far from 0.5", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewSeeded(42)
	child := parent.Split()
	matches := 0
	for i := 0; i < 1000; i++ {
		if parent.Next() == child.Next() {
			matches++
		}
	}
	if matches > 2 {
		t.Fatalf("split stream tracks parent: %d/1000 matches", matches)
	}
}

func TestSeedRoundTrip(t *testing.T) {
	r := NewSeeded(777)
	for i := 0; i < 10; i++ {
		r.Next()
	}
	clone := NewSeeded(r.Seed())
	for i := 0; i < 100; i++ {
		if a, b := r.Next(), clone.Next(); a != b {
			t.Fatalf("seed round-trip diverged at %d", i)
		}
	}
}

func TestNewIsSeededFromEntropy(t *testing.T) {
	a, b := New(), New()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 100 {
		t.Fatal("two entropy-seeded generators produced identical streams")
	}
}

func TestQuickUintnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, n uint32) bool {
		if n == 0 {
			n = 1
		}
		r := NewSeeded(seed)
		for i := 0; i < 20; i++ {
			if r.Uintn(uint64(n)) >= uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNext(b *testing.B) {
	r := NewSeeded(1)
	for i := 0; i < b.N; i++ {
		_ = r.Next()
	}
}

func BenchmarkFill(b *testing.B) {
	r := NewSeeded(1)
	buf := make([]byte, fillBlock)
	b.SetBytes(fillBlock)
	for i := 0; i < b.N; i++ {
		r.Fill(buf)
	}
}

func BenchmarkUintn(b *testing.B) {
	r := NewSeeded(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uintn(12345)
	}
}
