/**
 * @file
 * Portable baseline instantiation of the blocked GEMM and conv
 * kernels, compiled with the project's default flags (SSE2 on x86-64).
 */

#define AIB_GEMM_KERNELS kGemmKernelsGeneric
#include "tensor/detail/gemm_blocked.inc"
