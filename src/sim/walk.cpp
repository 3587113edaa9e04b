// Compiled with -ffp-contract=off, like simulator.cpp, which holds the
// packed oracle and the batched walk (src/sim/CMakeLists.txt): the
// kernels' multiply and add must stay two roundings, as in the packed
// oracle, whatever instructions the target attribute makes available.
#include "sim/walk.h"

#include "util/check.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define SERPENS_WALK_AVX512 1
#include <immintrin.h>
#endif

namespace serpens::sim {
namespace {

// One channel's (idx, value) stream and how to unpack it.
struct Stream {
    const std::uint32_t* idx;
    const float* val;
    unsigned shift;      // col_bits
    std::uint32_t mask;  // (1 << col_bits) - 1
};

// Elements [begin, end) of one segment extent; xs is the segment's x base.
void walk_scalar(const Stream& s, float* bank, const float* xs,
                 std::size_t begin, std::size_t end)
{
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t w = s.idx[i];
        bank[w >> s.shift] += s.val[i] * xs[w & s.mask];
    }
}

#if SERPENS_WALK_AVX512
__attribute__((target("avx2,avx512f,avx512vl")))
void walk_avx512(const Stream& s, const DecodedImage::Channel& c, float* bank,
                 const float* x, std::size_t window)
{
    constexpr std::size_t kG = DecodedImage::kSimdGroup;
    static_assert(kG == 8, "one __m256 lane per group element");
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(s.shift));
    const __m256i mask = _mm256_set1_epi32(static_cast<int>(s.mask));
    for (std::size_t seg = 0; seg + 1 < c.seg_begin.size(); ++seg) {
        const float* const xs = x + seg * window;
        const std::size_t begin = c.seg_begin[seg], end = c.seg_begin[seg + 1];
        // Whole groups [g0, g1) inside the extent; the ragged head and
        // tail around them run scalar.
        const std::size_t g0 = (begin + kG - 1) / kG, g1 = end / kG;
        if (g0 >= g1) {
            walk_scalar(s, bank, xs, begin, end);
            continue;
        }
        walk_scalar(s, bank, xs, begin, g0 * kG);
        for (std::size_t g = g0; g < g1; ++g) {
            const std::size_t i = g * kG;
            if (((c.simd_ok[g / 64] >> (g % 64)) & 1u) == 0) {
                walk_scalar(s, bank, xs, i, i + kG);
                continue;
            }
            const __m256i w =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s.idx + i));
            const __m256i o = _mm256_srl_epi32(w, shift);
            const __m256i j = _mm256_and_si256(w, mask);
            const __m256 prod = _mm256_mul_ps(_mm256_loadu_ps(s.val + i),
                                              _mm256_i32gather_ps(xs, j, 4));
            const __m256 sum =
                _mm256_add_ps(_mm256_i32gather_ps(bank, o, 4), prod);
            _mm256_i32scatter_ps(bank, o, sum, 4);
        }
        walk_scalar(s, bank, xs, g1 * kG, end);
    }
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

void walk_channel(WalkKernel kernel, const DecodedImage& img, unsigned ch,
                  float* bank, const float* x)
{
    SERPENS_CHECK(walk_kernel_supported(kernel),
                  "B=1 walk kernel not supported on this host");
    const DecodedImage::Channel& c = img.channel(ch);
    const Stream s{c.idx.data(), c.value.data(), img.col_bits(),
                   (1u << img.col_bits()) - 1};
    const std::size_t window = img.params().window;
#if SERPENS_WALK_AVX512
    if (kernel == WalkKernel::avx512)
        return walk_avx512(s, c, bank, x, window);
#endif
    for (std::size_t seg = 0; seg + 1 < c.seg_begin.size(); ++seg)
        walk_scalar(s, bank, x + seg * window, c.seg_begin[seg],
                    c.seg_begin[seg + 1]);
}

} // namespace serpens::sim
