//go:build amd64 && !noasm

package counts

import "repro/internal/cpufeat"

// haveAVX2Kernels gates the AVX2 tier on the running CPU (and the OS saving
// YMM state); the binary always carries the kernels on amd64 unless built
// with the noasm tag.
var haveAVX2Kernels = cpufeat.X86.AVX2

var avx2Kernel = &Kernel{tier: TierAVX2, funcs: avx2Funcs}

func avx2Funcs(k int) (KernelFuncs, bool) {
	switch k {
	case 8:
		return KernelFuncs{avx2RecK8}, true
	case 16:
		return KernelFuncs{avx2RecK16}, true
	default:
		// Assembly specializes the alphabets where it measured faster
		// (8, 16); at k = 4 the unrolled scalar kernel is as fast, so the
		// rest inherit the scalar tier, bit-identical by contract.
		return scalarFuncs(k)
	}
}

// The assembly entry points take raw pointers; the wrappers pin the length
// contract (len == k) with explicit bounds checks so a short slice panics
// in Go instead of reading past the allocation in assembly.

//go:noescape
func reconK8AVX2(row *uint32, base *int32, group uint64, vec *int)

//go:noescape
func reconK16AVX2(row *uint32, base *int32, group uint64, vec *int)

func avx2RecK8(row []uint32, group uint64, base []int32, vec []int) {
	_, _, _ = row[7], base[7], vec[7]
	reconK8AVX2(&row[0], &base[0], group, &vec[0])
}

func avx2RecK16(row []uint32, group uint64, base []int32, vec []int) {
	_, _, _ = row[15], base[15], vec[15]
	reconK16AVX2(&row[0], &base[0], group, &vec[0])
}
