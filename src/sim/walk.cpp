// Compiled with -ffp-contract=off (src/sim/CMakeLists.txt): the kernels'
// multiply and add must stay two roundings, as in the packed oracle,
// whatever instructions the target attribute makes available.
#include "sim/walk.h"

#include "util/check.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define SERPENS_WALK_AVX512 1
#include <immintrin.h>
#endif

namespace serpens::sim {
namespace {

void walk_scalar(const DecodedImage::Channel& c, float* bank, const float* x,
                 std::size_t begin, std::size_t end)
{
    const std::uint32_t* const off = c.acc_off.data();
    const std::uint32_t* const col = c.col.data();
    const float* const val = c.value.data();
    for (std::size_t i = begin; i < end; ++i)
        bank[off[i]] += val[i] * x[col[i]];
}

#if SERPENS_WALK_AVX512
__attribute__((target("avx2,avx512f,avx512vl")))
void walk_avx512(const DecodedImage::Channel& c, float* bank, const float* x)
{
    constexpr std::size_t kG = DecodedImage::kSimdGroup;
    static_assert(kG == 8, "one __m256 lane per group element");
    const std::uint32_t* const off = c.acc_off.data();
    const std::uint32_t* const col = c.col.data();
    const float* const val = c.value.data();
    const std::size_t groups = c.value.size() / kG;
    for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t i = g * kG;
        if (((c.simd_ok[g / 64] >> (g % 64)) & 1u) == 0) {
            walk_scalar(c, bank, x, i, i + kG);
            continue;
        }
        const __m256i o =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(off + i));
        const __m256i j =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
        const __m256 prod =
            _mm256_mul_ps(_mm256_loadu_ps(val + i), _mm256_i32gather_ps(x, j, 4));
        const __m256 sum = _mm256_add_ps(_mm256_i32gather_ps(bank, o, 4), prod);
        _mm256_i32scatter_ps(bank, o, sum, 4);
    }
    walk_scalar(c, bank, x, groups * kG, c.value.size());
}
#endif

} // namespace

bool walk_kernel_supported(WalkKernel kernel)
{
    if (kernel == WalkKernel::scalar)
        return true;
#if SERPENS_WALK_AVX512
    static const bool avx512 = __builtin_cpu_supports("avx512f") &&
                               __builtin_cpu_supports("avx512vl");
    return avx512;
#else
    return false;
#endif
}

WalkKernel host_walk_kernel()
{
    static const WalkKernel kernel = walk_kernel_supported(WalkKernel::avx512)
                                         ? WalkKernel::avx512
                                         : WalkKernel::scalar;
    return kernel;
}

const char* walk_kernel_name(WalkKernel kernel)
{
    return kernel == WalkKernel::avx512 ? "avx512" : "scalar";
}

void walk_channel(WalkKernel kernel, const DecodedImage::Channel& c,
                  float* bank, const float* x)
{
    SERPENS_CHECK(walk_kernel_supported(kernel),
                  "B=1 walk kernel not supported on this host");
#if SERPENS_WALK_AVX512
    if (kernel == WalkKernel::avx512)
        return walk_avx512(c, bank, x);
#endif
    walk_scalar(c, bank, x, 0, c.value.size());
}

} // namespace serpens::sim
