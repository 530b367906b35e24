//go:build !amd64 || noasm

package counts

// Non-amd64 architectures and noasm builds carry no assembly kernels; the
// dispatcher never selects TierAVX2 (TierSupported reports false) and the
// table below exists only to satisfy the linker-level references.
const haveAVX2Kernels = false

var avx2Kernel = &Kernel{tier: TierAVX2, funcs: scalarFuncs}
