package counts

import (
	"fmt"
	"sync/atomic"
)

// This file implements the vectorized reconstruct kernels: the data-parallel
// inner step of the index's own probes (CumAt, Vector). A probe resolves a
// position to (checkpoint row, nibble group); the kernel then rebuilds the
// k-lane count vector
//
//	vec[c] = row[c] + nibble(group, c) − base[c]
//
// Two tiers implement the identical integer contract:
//
//   - TierScalar: the unrolled scalar code — the golden reference and the
//     fallback for every build.
//   - TierAVX2: go-assembly kernels (amd64, !noasm) that unpack the nibble
//     group, add the checkpoint row, subtract the base, and widen in a
//     handful of vector instructions.
//
// Both tiers are exact integer arithmetic, so results are bit-identical by
// construction; the differential fuzz target and the kernel-matrix tests
// pin that down. Dispatch is resolved once per process at init from the
// build tag and CPUID (internal/cpufeat); every index binds the tier it
// resolved when it was built. The scan cursor (chisq.Roll) does not call
// these kernels: its landings rebuild the counts inline, fused with the
// sums it needs, with no function call on the step.

// Tier identifies a reconstruct-kernel implementation tier.
type Tier uint8

const (
	// TierScalar is the unrolled scalar reference implementation.
	TierScalar Tier = iota
	// TierAVX2 is the go-assembly AVX2 tier (amd64 without the noasm tag,
	// on CPUs whose CPUID reports AVX2).
	TierAVX2
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierScalar:
		return "scalar"
	case TierAVX2:
		return "avx2"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// TierSupported reports whether the tier can execute on this build and CPU.
// Scalar is always available; AVX2 requires an amd64 binary built without
// the noasm tag on a CPU (and OS) that supports it.
func TierSupported(t Tier) bool {
	switch t {
	case TierScalar:
		return true
	case TierAVX2:
		return haveAVX2Kernels
	default:
		return false
	}
}

// BestTier returns the fastest supported tier — what dispatch selects.
func BestTier() Tier {
	if haveAVX2Kernels {
		return TierAVX2
	}
	return TierScalar
}

// ReconstructFunc rebuilds the k-lane window count vector from one
// checkpointed probe: vec[c] = int32(row[c]) + nibble c of group − base[c].
// row and base must have length k == len(vec); group holds the position's
// nibble-delta group in its low 4k bits (higher bits are ignored).
type ReconstructFunc func(row []uint32, group uint64, base []int32, vec []int)

// KernelFuncs holds the kernel entry points resolved for one alphabet size
// — what probes hold directly so no per-call tier or k dispatch remains.
type KernelFuncs struct {
	Reconstruct ReconstructFunc
}

// Kernel is a resolved kernel tier: a function table mapping an alphabet
// size to its specialized entry points. The AVX2 tier specializes the
// alphabets where it measured faster than the unrolled scalar code (k = 8,
// 16) and inherits the scalar tier for the rest, so a Kernel always answers
// for every group-eligible k.
type Kernel struct {
	tier  Tier
	funcs func(k int) (KernelFuncs, bool)
}

// Tier reports which tier this kernel resolves to.
func (kr *Kernel) Tier() Tier { return kr.tier }

// Funcs returns the kernel entry points specialized for alphabet size k.
// The second result is false when k is not group-eligible (GroupFits):
// such alphabets probe nibble-by-nibble outside the kernel table.
func (kr *Kernel) Funcs(k int) (KernelFuncs, bool) {
	if !GroupFits(k) {
		return KernelFuncs{}, false
	}
	return kr.funcs(k)
}

// GroupFits reports whether a whole nibble group of alphabet size k can be
// fetched as one uint64 from the packed block words at every in-block
// offset: the group's word offset is a multiple of gcd(4k, 32) bits, so the
// two-word read covers it iff 32 − gcd(4k, 32) + 4k ≤ 64 — true for k ≤ 10,
// k = 12, and k = 16. Other alphabets (11, 13, 14, 15, and k > 16) extract
// nibble-by-nibble on the scalar path.
func GroupFits(k int) bool {
	return k >= 2 && (k <= 10 || k == 12 || k == 16)
}

// ---------------------------------------------------------------------------
// Dispatch: the process-wide active kernel.

// activeKernel holds the process-wide default kernel, selected at init from
// the build tag and CPUID. It is stored atomically so SetActiveTier (a test
// seam) never races indexes resolving it.
var activeKernel atomic.Pointer[Kernel]

func init() { activeKernel.Store(kernelFor(BestTier())) }

// Active returns the process-wide kernel new indexes and scanners resolve
// by default.
func Active() *Kernel { return activeKernel.Load() }

// ActiveTier returns the tier of the process-wide kernel — what
// observability endpoints report.
func ActiveTier() Tier { return Active().tier }

// SetActiveTier overrides the process-wide kernel tier, for tests that pin
// a tier. It fails if the tier is not supported on this build and CPU;
// already-built indexes, and the scanners over them, keep the kernel they
// resolved.
func SetActiveTier(t Tier) error {
	if !TierSupported(t) {
		return fmt.Errorf("counts: kernel tier %s is not supported on this CPU/build", t)
	}
	activeKernel.Store(kernelFor(t))
	return nil
}

// KernelFor returns the kernel table for an explicit tier, for paired
// measurement and differential testing. It fails if the tier cannot execute
// here.
func KernelFor(t Tier) (*Kernel, error) {
	if !TierSupported(t) {
		return nil, fmt.Errorf("counts: kernel tier %s is not supported on this CPU/build", t)
	}
	return kernelFor(t), nil
}

var scalarKernel = &Kernel{tier: TierScalar, funcs: scalarFuncs}

func kernelFor(t Tier) *Kernel {
	if t == TierAVX2 {
		return avx2Kernel
	}
	return scalarKernel
}

// zeroBase is the shared all-zero base vector CumAt-style probes pass to
// the reconstruct kernels (cum[pos][c] = row[c] + nibble(c) − 0). Read-only.
var zeroBase [16]int32

// ---------------------------------------------------------------------------
// Scalar tier: the unrolled reference implementation — the golden reference
// the AVX2 tier is differentially tested against, and the
// noasm/unsupported-CPU fallback.

func scalarFuncs(k int) (KernelFuncs, bool) {
	switch k {
	case 2:
		return KernelFuncs{scalarRecK2}, true
	case 4:
		return KernelFuncs{scalarRecK4}, true
	case 8:
		return KernelFuncs{scalarRecK8}, true
	default:
		return KernelFuncs{scalarRecGeneric}, true
	}
}

func scalarRecK2(row []uint32, group uint64, base []int32, vec []int) {
	_, _, _ = row[1], base[1], vec[1]
	vec[0] = int(int32(row[0])) - int(base[0]) + int(group&15)
	vec[1] = int(int32(row[1])) - int(base[1]) + int(group>>4&15)
}

func scalarRecK4(row []uint32, group uint64, base []int32, vec []int) {
	_, _, _ = row[3], base[3], vec[3]
	vec[0] = int(int32(row[0])) - int(base[0]) + int(group&15)
	vec[1] = int(int32(row[1])) - int(base[1]) + int(group>>4&15)
	vec[2] = int(int32(row[2])) - int(base[2]) + int(group>>8&15)
	vec[3] = int(int32(row[3])) - int(base[3]) + int(group>>12&15)
}

func scalarRecK8(row []uint32, group uint64, base []int32, vec []int) {
	_, _, _ = row[7], base[7], vec[7]
	vec[0] = int(int32(row[0])) - int(base[0]) + int(group&15)
	vec[1] = int(int32(row[1])) - int(base[1]) + int(group>>4&15)
	vec[2] = int(int32(row[2])) - int(base[2]) + int(group>>8&15)
	vec[3] = int(int32(row[3])) - int(base[3]) + int(group>>12&15)
	vec[4] = int(int32(row[4])) - int(base[4]) + int(group>>16&15)
	vec[5] = int(int32(row[5])) - int(base[5]) + int(group>>20&15)
	vec[6] = int(int32(row[6])) - int(base[6]) + int(group>>24&15)
	vec[7] = int(int32(row[7])) - int(base[7]) + int(group>>28&15)
}

func scalarRecGeneric(row []uint32, group uint64, base []int32, vec []int) {
	row = row[:len(vec)]
	base = base[:len(vec)]
	for c := range vec {
		vec[c] = int(int32(row[c])) - int(base[c]) + int(group&15)
		group >>= 4
	}
}
