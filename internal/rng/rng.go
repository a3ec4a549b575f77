// Package rng implements Marsaglia's multiply-with-carry pseudo-random
// number generator, the generator used by the DieHard allocator (Berger &
// Zorn, PLDI 2006, §4.1). It is small, fast, and deterministic given a
// seed, which the replication harness depends on: every replica derives a
// distinct stream from a true random seed.
package rng

import (
	"crypto/rand"
	"encoding/binary"
)

// MWC is a multiply-with-carry generator after Marsaglia (1994). The zero
// value is not usable; construct with New or NewSeeded.
type MWC struct {
	z uint32
	w uint32
}

// Default seeds from Marsaglia's posting; used when a caller-provided seed
// half would never move (NewSeeded).
const (
	defaultZ = 362436069
	defaultW = 521288629
)

// New returns a generator seeded from the operating system's entropy
// source, mirroring DieHard's use of /dev/urandom for true random seeds.
func New() *MWC {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// Entropy exhaustion is not a recoverable condition for a
		// randomized allocator; fall back to fixed seeds so the
		// allocator still functions (tests never hit this path).
		return NewSeeded(uint64(defaultZ)<<32 | defaultW)
	}
	return NewSeeded(binary.LittleEndian.Uint64(buf[:]))
}

// NewSeeded returns a deterministic generator. Both 32-bit halves of the
// seed are used. A half whose stream would never move is replaced with
// Marsaglia's constant: zero in either half, modZ in z, and in w modW
// and the two values one draw lands on it (0x8C9FFFFE and 0xD2EFFFFD: a
// draw lands on p exactly when the high 16 bits are ≡ −1 mod the
// multiplier). Every other half reaches [1, p−1] within two draws and
// cycles there.
func NewSeeded(seed uint64) *MWC {
	z := uint32(seed >> 32)
	w := uint32(seed)
	if z == 0 || z == modZ {
		z = defaultZ
	}
	if w == 0 || w == modW || w == 0x8C9FFFFE || w == 0xD2EFFFFD {
		w = defaultW
	}
	return &MWC{z: z, w: w}
}

// Next returns the next 32-bit pseudo-random value.
func (r *MWC) Next() uint32 {
	r.z = 36969*(r.z&65535) + (r.z >> 16)
	r.w = 18000*(r.w&65535) + (r.w >> 16)
	return (r.z << 16) + r.w
}

// Next64 returns a 64-bit value assembled from two successive draws.
func (r *MWC) Next64() uint64 {
	hi := uint64(r.Next())
	lo := uint64(r.Next())
	return hi<<32 | lo
}

// Each MWC half is a multiplicative congruential generator in disguise.
// With base b = 2^16, multiplier a and modulus p = a·b − 1, a state
// x = c·b + d steps to x' = a·d + c, and b·x' = x + p·d, so x' ≡ a·x
// (mod p). For x in [1, p−1] the step is exactly x' = a·x mod p and stays
// in that range, so n draws are one multiplication by a^n mod p. Fill
// uses the jump for n = 256 (a test recomputes the constants).
const (
	modZ  = 36969<<16 - 1 // p of the z half
	modW  = 18000<<16 - 1 // p of the w half
	jumpZ = 0x88F53042    // 36969^256 mod modZ
	jumpW = 0x41233A44    // 18000^256 mod modW

	fillBlock = 4096          // bytes Fill writes as four lanes
	laneBytes = fillBlock / 4 // 256 draws per lane
)

// Fill writes successive draws into b as little-endian 32-bit words:
// exactly the bytes of
//
//	for i := 0; i+4 <= len(b); i += 4 {
//		binary.LittleEndian.PutUint32(b[i:], r.Next())
//	}
//
// leaving r where that loop leaves it. A ragged tail of fewer than 4
// bytes is not written. While both halves lie in [1, p−1] (a seeded
// stream's state after at most two draws), each whole 4 KB block is
// filled as four lanes of 256 draws that run in lockstep.
func (r *MWC) Fill(b []byte) {
	for len(b) >= fillBlock {
		if r.z-1 >= modZ-1 || r.w-1 >= modW-1 {
			// A raw seed half, or a fixed point: step until in range.
			binary.LittleEndian.PutUint32(b, r.Next())
			b = b[4:]
			continue
		}
		r.fillBlock((*[fillBlock]byte)(b))
		b = b[fillBlock:]
	}
	for ; len(b) >= 4; b = b[4:] {
		binary.LittleEndian.PutUint32(b, r.Next())
	}
}

// fillBlock fills one block as four lanes: lane j starts 256·j draws
// into the block, at the state times jump^j mod p, and lane 3 ends on
// the state after the block's 1024 draws. Each lane writes through its
// own fixed-size array pointer, so the loop carries no bounds checks.
func (r *MWC) fillBlock(b *[fillBlock]byte) {
	z0, w0 := r.z, r.w
	z1, w1 := jump(z0, jumpZ, modZ), jump(w0, jumpW, modW)
	z2, w2 := jump(z1, jumpZ, modZ), jump(w1, jumpW, modW)
	z3, w3 := jump(z2, jumpZ, modZ), jump(w2, jumpW, modW)
	l0 := (*[laneBytes]byte)(b[0*laneBytes:])
	l1 := (*[laneBytes]byte)(b[1*laneBytes:])
	l2 := (*[laneBytes]byte)(b[2*laneBytes:])
	l3 := (*[laneBytes]byte)(b[3*laneBytes:])
	for i := 0; i <= laneBytes-4; i += 4 {
		z0 = 36969*(z0&65535) + z0>>16
		w0 = 18000*(w0&65535) + w0>>16
		z1 = 36969*(z1&65535) + z1>>16
		w1 = 18000*(w1&65535) + w1>>16
		z2 = 36969*(z2&65535) + z2>>16
		w2 = 18000*(w2&65535) + w2>>16
		z3 = 36969*(z3&65535) + z3>>16
		w3 = 18000*(w3&65535) + w3>>16
		binary.LittleEndian.PutUint32(l0[i:], z0<<16+w0)
		binary.LittleEndian.PutUint32(l1[i:], z1<<16+w1)
		binary.LittleEndian.PutUint32(l2[i:], z2<<16+w2)
		binary.LittleEndian.PutUint32(l3[i:], z3<<16+w3)
	}
	r.z, r.w = z3, w3
}

// jump returns x·j mod p.
func jump(x, j, p uint32) uint32 { return uint32(uint64(x) * uint64(j) % uint64(p)) }

// Step advances a packed MWC state by one draw and returns the successor
// state and the drawn value. The state encoding is the one Seed reports
// and NewSeeded consumes (z in the high half, w in the low half), and the
// recurrence is exactly Next's, so a stream advanced through Step is
// bit-identical to one advanced through the method. The DieHard
// allocator keeps each size class's stream in an atomic word: a claim
// draws any number of values through Step in registers and publishes the
// whole advance with one compare-and-swap of (start state, final state).
// A stream seeded through NewSeeded never reaches a half NewSeeded
// replaces, so packed states round-trip exactly.
func Step(state uint64) (next uint64, value uint32) {
	z := uint32(state >> 32)
	w := uint32(state)
	z = 36969*(z&65535) + (z >> 16)
	w = 18000*(w&65535) + (w >> 16)
	return uint64(z)<<32 | uint64(w), z<<16 + w
}

// Uintn returns a uniform value in [0, n). n must be positive.
// DieHard's slot probing only needs modulo-style uniformity; we use
// rejection sampling to avoid modulo bias so the analytical results in
// internal/analysis hold exactly.
func (r *MWC) Uintn(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uintn with n == 0")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		return r.Next64() & (n - 1)
	}
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Next64()
		if v < limit {
			return v % n
		}
	}
}

// Uint32n returns a uniform value in [0, n). It uses Lemire's
// multiply-shift reduction with rejection, so it is exactly uniform (the
// analytical results in internal/analysis depend on that) while drawing
// a single 32-bit value in the common case — half the generator steps of
// Uintn. The allocator's probe loop is its main client.
func (r *MWC) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("rng: Uint32n with n == 0")
	}
	m := uint64(r.Next()) * uint64(n)
	if l := uint32(m); l < n {
		t := -n % n
		for l < t {
			m = uint64(r.Next()) * uint64(n)
			l = uint32(m)
		}
	}
	return uint32(m >> 32)
}

// Intn returns a uniform value in [0, n) as an int. n must be positive.
func (r *MWC) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uintn(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *MWC) Float64() float64 {
	return float64(r.Next64()>>11) / (1 << 53)
}

// Bool returns a uniform boolean.
func (r *MWC) Bool() bool { return r.Next()&1 == 1 }

// Split derives a new independent-seeming generator from this one. The
// replication harness uses Split to give each replica its own stream from
// one true-random master seed, which keeps experiment runs reproducible
// from a single recorded seed.
func (r *MWC) Split() *MWC {
	return NewSeeded(r.Next64() ^ 0x9e3779b97f4a7c15)
}

// Seed reports a seed that reconstructs the generator's current state via
// NewSeeded. Useful for logging the exact state that produced a failure.
func (r *MWC) Seed() uint64 {
	return uint64(r.z)<<32 | uint64(r.w)
}
