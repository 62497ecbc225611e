#include "kernels.hpp"

#include <algorithm>
#include <cstring>

// The tiles below multiply, round, then add, exactly like the scalar
// reference. A compiler allowed to contract `acc += a * b` into a fused
// multiply-add would round once instead of twice and change the bits, so
// this file must be compiled with -ffp-contract=off (CMakeLists.txt sets
// it for this file alone; CI fails if its object code holds any vfmadd).

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define FISONE_X86_TIERS 1
#define FISONE_TARGET(isa) __attribute__((target(isa)))
#else
#define FISONE_X86_TIERS 0
#endif

#if defined(__GNUC__) || defined(__clang__)
#define FISONE_INLINE __attribute__((always_inline)) inline
#else
#define FISONE_INLINE inline
#endif

namespace fisone::linalg::kernels {

namespace {

// ---------------------------------------------------------------------------
// Vector types. Lane arithmetic is elementwise, so every output cell still
// owns one scalar accumulator and its addition order is untouched: vectors
// only batch *independent* cells, which is all the bit-identity contract
// allows. `double` is the one-lane case, so one tile template serves every
// width, down to the scalar column tail.
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
typedef double v2df __attribute__((vector_size(16)));
typedef double v4df __attribute__((vector_size(32)));
typedef double v8df __attribute__((vector_size(64)));
#endif

template <class V>
inline constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/// The next narrower vector of a column ladder (16 → 8 → 4 → 2 → 1 lanes).
template <class V>
struct half_of;
#if defined(__GNUC__) || defined(__clang__)
template <>
struct half_of<v8df> {
    using type = v4df;
};
template <>
struct half_of<v4df> {
    using type = v2df;
};
template <>
struct half_of<v2df> {
    using type = double;
};
#endif

/// Vectors never cross a function boundary by value (the helpers below are
/// all inlined into a per-tier entry point that carries the target ISA),
/// so loads and stores go through memcpy on references.
template <class V>
FISONE_INLINE void load(V& v, const double* p) noexcept {
    std::memcpy(&v, p, sizeof v);
}
template <class V>
FISONE_INLINE void store(double* p, const V& v) noexcept {
    std::memcpy(p, &v, sizeof v);
}

// ---------------------------------------------------------------------------
// The one axpy-style tile: MR output rows × NV vectors of V accumulate in
// registers over `kd` depth steps. Tile-local coordinates: `c` points at
// the top-left output cell (row stride ldc), `b` at B(k0, j) (row stride
// ldb), and `a` at the A element (row 0, depth k0), with the element for
// row r at depth kk at a[r·ras + kk·kas]. `first` selects zero-init vs
// continuing from the previous k-block's stored partials. Either way each
// cell's additions run over the depth index in ascending order.
// ---------------------------------------------------------------------------

template <class V, std::size_t MR, std::size_t NV>
FISONE_INLINE void tile(const double* a, std::size_t ras, std::size_t kas, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc, std::size_t kd,
                        bool first) noexcept {
    constexpr std::size_t L = kLanes<V>;
    V acc[MR][NV];
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NV; ++q) {
            if (first)
                acc[r][q] = V{};
            else
                load(acc[r][q], c + r * ldc + q * L);
        }
    for (std::size_t kk = 0; kk < kd; ++kk) {
        V bv[NV];
        for (std::size_t q = 0; q < NV; ++q) load(bv[q], b + kk * ldb + q * L);
        for (std::size_t r = 0; r < MR; ++r) {
            const double as = a[r * ras + kk * kas];
            for (std::size_t q = 0; q < NV; ++q) acc[r][q] += bv[q] * as;
        }
    }
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t q = 0; q < NV; ++q) store(c + r * ldc + q * L, acc[r][q]);
}

/// Columns [j, n) left after the full-width tiles (fewer than 2·L): at
/// most one tile per rung of the ladder, ending in a scalar column.
template <class V, std::size_t MR>
FISONE_INLINE void column_tail(const double* a, std::size_t ras, std::size_t kas, const double* b,
                               std::size_t ldb, double* c, std::size_t ldc, std::size_t j,
                               std::size_t n, std::size_t kd, bool first) noexcept {
    constexpr std::size_t L = kLanes<V>;
    if (j + L <= n) {
        tile<V, MR, 1>(a, ras, kas, b + j, ldb, c + j, ldc, kd, first);
        j += L;
    }
    if constexpr (L > 1) column_tail<typename half_of<V>::type, MR>(a, ras, kas, b, ldb, c, ldc, j,
                                                                    n, kd, first);
}

/// MR output rows across n columns: full tiles of 2·L columns, then the
/// narrowing tail.
template <class V, std::size_t MR>
FISONE_INLINE void row_panel(const double* a, std::size_t ras, std::size_t kas, const double* b,
                             std::size_t ldb, double* c, std::size_t ldc, std::size_t n,
                             std::size_t kd, bool first) noexcept {
    constexpr std::size_t NR = 2 * kLanes<V>;
    std::size_t j = 0;
    for (; j + NR <= n; j += NR) tile<V, MR, 2>(a, ras, kas, b + j, ldb, c + j, ldc, kd, first);
    column_tail<V, MR>(a, ras, kas, b, ldb, c, ldc, j, n, kd, first);
}

/// row_panel for a runtime row count mr in [1, kKernelRows].
template <class V>
FISONE_INLINE void rows_panel(std::size_t mr, const double* a, std::size_t ras, std::size_t kas,
                              const double* b, std::size_t ldb, double* c, std::size_t ldc,
                              std::size_t n, std::size_t kd, bool first) noexcept {
    static_assert(kKernelRows == 4, "rows_panel dispatches 1..4 rows");
    switch (mr) {
        case 1: row_panel<V, 1>(a, ras, kas, b, ldb, c, ldc, n, kd, first); break;
        case 2: row_panel<V, 2>(a, ras, kas, b, ldb, c, ldc, n, kd, first); break;
        case 3: row_panel<V, 3>(a, ras, kas, b, ldb, c, ldc, n, kd, first); break;
        default: row_panel<V, 4>(a, ras, kas, b, ldb, c, ldc, n, kd, first); break;
    }
}

// ---------------------------------------------------------------------------
// The two loop nests every product reduces to, both over output rows
// [r0, r1) and kBlockK-deep k-blocks taken in ascending order.
// ---------------------------------------------------------------------------

/// B rows contiguous over j (matmul and matmul_tn). The A element for
/// output row i at depth kk sits at a[i·ras + kk·kas]:
///   matmul    (A m×k):  ras = k, kas = 1
///   matmul_tn (A k×m):  ras = 1, kas = m   (output row i = column i of A)
/// When a row tile spans several column tiles, column-strided A (kas > 1)
/// is repacked into a contiguous kKernelRows × k-block micro-panel, so
/// each of them streams it with unit depth stride like the nn layout. With
/// one column tile (the served weight gradient, n = d) the pack costs more
/// than it saves: the tile's A elements of one depth are adjacent anyway.
/// Copying values never changes them.
template <class V>
FISONE_INLINE void gemm_axpy(const double* a, std::size_t ras, std::size_t kas, const double* b,
                             double* c, std::size_t depth, std::size_t n, std::size_t r0,
                             std::size_t r1) noexcept {
    if (n == 0 || r1 <= r0) return;
    if (depth == 0) {  // empty sum: the output rows are exactly zero
        std::fill(c + r0 * n, c + r1 * n, 0.0);
        return;
    }
    alignas(kAlignment) double apack[kKernelRows * kBlockK];
    for (std::size_t k0 = 0; k0 < depth; k0 += kBlockK) {
        const std::size_t kd = std::min(depth, k0 + kBlockK) - k0;
        for (std::size_t i = r0; i < r1; i += kKernelRows) {
            const std::size_t mr = std::min(kKernelRows, r1 - i);
            const double* a_tile = a + i * ras + k0 * kas;
            std::size_t t_ras = ras;
            std::size_t t_kas = kas;
            if (kas != 1 && n > 2 * kLanes<V>) {  // more than one column tile
                for (std::size_t kk = 0; kk < kd; ++kk)
                    for (std::size_t r = 0; r < mr; ++r)
                        apack[r * kBlockK + kk] = a_tile[r * ras + kk * kas];
                a_tile = apack;
                t_ras = kBlockK;
                t_kas = 1;
            }
            rows_panel<V>(mr, a_tile, t_ras, t_kas, b + k0 * n, n, c + i * n, n, n, kd, k0 == 0);
        }
    }
}

/// matmul_nt: C(m×n) = A(m×k) · B(n×k)ᵀ. Bᵀ is packed one k-block ×
/// 2·L-column micro-panel at a time into a bounded stack buffer, which
/// turns the product into the axpy layout (panel rows contiguous over j);
/// every row tile then reuses the panel. A is row-contiguous (ras = k).
template <class V>
FISONE_INLINE void gemm_nt(const double* a, const double* b, double* c, std::size_t k,
                           std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    if (n == 0 || r1 <= r0) return;
    if (k == 0) {
        std::fill(c + r0 * n, c + r1 * n, 0.0);
        return;
    }
    constexpr std::size_t NP = 2 * kLanes<V>;
    alignas(kAlignment) double bpack[kBlockK * NP];
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::size_t kd = std::min(k, k0 + kBlockK) - k0;
        for (std::size_t j = 0; j < n; j += NP) {
            const std::size_t w = std::min(NP, n - j);
            for (std::size_t q = 0; q < w; ++q) {
                const double* brow = b + (j + q) * k + k0;
                for (std::size_t kk = 0; kk < kd; ++kk) bpack[kk * NP + q] = brow[kk];
            }
            for (std::size_t i = r0; i < r1; i += kKernelRows)
                rows_panel<V>(std::min(kKernelRows, r1 - i), a + i * k + k0, k, 1, bpack, NP,
                              c + i * n + j, n, w, kd, k0 == 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-tier entry points. Each one instantiates the loop nests for its vector
// width; on x86-64 the wide tiers carry their ISA as a function target, so
// the rest of the library stays baseline x86-64 and the wide code only runs
// after the CPU check in dispatched_isa().
// ---------------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
using baseline_vec = v2df;
#else
using baseline_vec = double;
#endif

#define FISONE_DEFINE_TIER(name, attr, V)                                                       \
    attr void name##_nn(const double* a, const double* b, double* c, std::size_t, std::size_t k, \
                        std::size_t n, std::size_t r0, std::size_t r1) noexcept {                \
        gemm_axpy<V>(a, k, 1, b, c, k, n, r0, r1);                                               \
    }                                                                                            \
    attr void name##_nt(const double* a, const double* b, double* c, std::size_t, std::size_t k, \
                        std::size_t n, std::size_t r0, std::size_t r1) noexcept {                \
        gemm_nt<V>(a, b, c, k, n, r0, r1);                                                       \
    }                                                                                            \
    attr void name##_tn(const double* a, const double* b, double* c, std::size_t m,              \
                        std::size_t k, std::size_t n, std::size_t r0, std::size_t r1) noexcept { \
        gemm_axpy<V>(a, 1, m, b, c, k, n, r0, r1);                                               \
    }                                                                                            \
    constexpr product_kernels name##_products{name##_nn, name##_nt, name##_tn};

FISONE_DEFINE_TIER(baseline, , baseline_vec)
#if FISONE_X86_TIERS
FISONE_DEFINE_TIER(avx2, FISONE_TARGET("avx2"), v4df)
FISONE_DEFINE_TIER(avx512, FISONE_TARGET("avx512f"), v8df)
#endif
#undef FISONE_DEFINE_TIER

const product_kernels& dispatched_products() noexcept {
    static const product_kernels& active = products(dispatched_isa());
    return active;
}

}  // namespace

// --- tiers and dispatch -----------------------------------------------------

const char* isa_name(isa tier) noexcept {
    switch (tier) {
        case isa::avx2: return "avx2";
        case isa::avx512: return "avx512";
        case isa::baseline: break;
    }
#if FISONE_X86_TIERS
    return "sse2";
#else
    return "generic";
#endif
}

bool isa_supported(isa tier) noexcept {
    switch (tier) {
        case isa::baseline: return true;
#if FISONE_X86_TIERS
        case isa::avx2: __builtin_cpu_init(); return __builtin_cpu_supports("avx2");
        case isa::avx512: __builtin_cpu_init(); return __builtin_cpu_supports("avx512f");
#else
        case isa::avx2:
        case isa::avx512: return false;
#endif
    }
    return false;
}

isa dispatched_isa() noexcept {
    static const isa widest = isa_supported(isa::avx512) ? isa::avx512
                              : isa_supported(isa::avx2) ? isa::avx2
                                                         : isa::baseline;
    return widest;
}

const product_kernels& products(isa tier) noexcept {
#if FISONE_X86_TIERS
    if (tier == isa::avx512) return avx512_products;
    if (tier == isa::avx2) return avx2_products;
#endif
    static_cast<void>(tier);
    return baseline_products;
}

// --- matmul: C(m×n) = A(m×k) · B(k×n) --------------------------------------

void matmul_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                   std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    static_cast<void>(m);
    if (n == 0 || r1 <= r0) return;
    std::fill(c + r0 * n, c + r1 * n, 0.0);
    for (std::size_t i = r0; i < r1; ++i) {
        double* crow = c + i * n;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const double av = a[i * k + kk];
            const double* brow = b + kk * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void matmul_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                    std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    dispatched_products().matmul(a, b, c, m, k, n, r0, r1);
}

// --- matmul_nt: C(m×n) = A(m×k) · B(n×k)ᵀ ----------------------------------

void matmul_nt_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    static_cast<void>(m);
    for (std::size_t i = r0; i < r1; ++i) {
        const double* arow = a + i * k;
        for (std::size_t j = 0; j < n; ++j) {
            const double* brow = b + j * k;
            double acc = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
            c[i * n + j] = acc;
        }
    }
}

void matmul_nt_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                       std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    dispatched_products().matmul_nt(a, b, c, m, k, n, r0, r1);
}

// --- matmul_tn: C(m×n) = A(k×m)ᵀ · B(k×n) ----------------------------------

void matmul_tn_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    if (n == 0 || r1 <= r0) return;
    std::fill(c + r0 * n, c + r1 * n, 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double* brow = b + kk * n;
        for (std::size_t i = r0; i < r1; ++i) {
            const double av = a[kk * m + i];
            double* crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
    }
}

void matmul_tn_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                       std::size_t n, std::size_t r0, std::size_t r1) noexcept {
    dispatched_products().matmul_tn(a, b, c, m, k, n, r0, r1);
}

// --- fused vector primitives ------------------------------------------------

void axpy(std::size_t n, double alpha, const double* x, double* y) noexcept {
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double dot(std::size_t n, const double* x, const double* y) noexcept {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
    return acc;
}

void scale(std::size_t n, double alpha, double* x) noexcept {
    for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

}  // namespace fisone::linalg::kernels
