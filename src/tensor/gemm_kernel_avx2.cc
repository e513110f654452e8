/**
 * @file
 * AVX2+FMA instantiation of the blocked GEMM and conv kernels. This
 * TU is compiled with -mavx2 -mfma (see tensor/CMakeLists.txt) and
 * must only be called after __builtin_cpu_supports confirms both.
 */

#define AIB_GEMM_KERNELS kGemmKernelsAvx2
#include "tensor/detail/gemm_blocked.inc"
