#pragma once

/// \file kernels.hpp
/// The raw numeric kernel layer under `linalg::matrix`: cache-blocked,
/// register-tiled dense products plus the fused vector primitives
/// (axpy / dot / scale) everything above builds on. Kernels work on raw
/// row-major buffers so they carry no matrix dependency and can be
/// benchmarked / tested against the scalar reference in isolation.
///
/// ## The bit-identity contract
///
/// Every blocked kernel produces output that is **bit-identical** to its
/// scalar reference for finite inputs, at any thread count and on every
/// ISA tier. The rule that makes this possible: for every output cell, the
/// sequence of floating-point additions is exactly `c = 0; c += a·b` over
/// the depth index in ascending order — the same sequence the scalar
/// i-k-j loop performs, each product rounded before it is added. Blocking
/// merely changes *where* the running value lives:
///  - the j-loop is register-tiled (vector accumulator rows), which is
///    pure loop unrolling — each cell keeps its own accumulator and a
///    vector lane is one cell;
///  - the k-loop is split into kBlockK-sized blocks processed in
///    ascending order; between blocks the accumulators round-trip
///    through the output buffer, which does not change the value
///    (storing and reloading a double is exact);
///  - operands may be repacked into contiguous micro-panels (the tn A
///    panel, the nt Bᵀ panel); copying never changes a value;
///  - threads split by *output rows*, and no cell is ever touched by two
///    threads.
/// Hence blocked, scalar, serial and pooled runs all agree to the bit.
///
/// ## ISA tiers
///
/// The blocked products come in tiers of one vector width each, all
/// compiled from the same tile template:
///  - `baseline`: 2-lane (SSE2) tiles of 4 rows × 4 columns;
///  - `avx2`: 4-lane tiles of 4 rows × 8 columns;
///  - `avx512`: 8-lane tiles of 4 rows × 16 columns.
/// Ragged columns narrow down the same ladder to a scalar column, so no
/// tier has a separate edge kernel. The wide tiers are per-function
/// `target(...)` code on x86-64; `dispatched_isa()` picks the widest one
/// this CPU supports once per process, with no option to override it.
/// Because a tier only changes how many independent cells move together,
/// every tier is bit-identical to the others.
///
/// **No fused multiply-add.** An FMA rounds `acc + a·b` once instead of
/// twice, which breaks the contract. kernels.cpp must therefore be built
/// with `-ffp-contract=off` (CMakeLists.txt sets it on that file alone);
/// without it, GCC contracts the AVX-512 tile into `vfmadd` instructions.

#include <cstddef>
#include <new>
#include <utility>

namespace fisone::linalg::kernels {

/// Alignment of every matrix/buffer allocation: one full cache line, so
/// a 64-byte SIMD load/store never straddles lines and row starts of
/// power-of-two widths land on line boundaries.
inline constexpr std::size_t kAlignment = 64;

/// Output rows per register tile, on every tier. Each loaded B vector
/// feeds this many output rows, so a full B sweep happens once per 4 rows
/// of C. A row-partitioned caller should split on multiples of it, so that
/// only the last chunk ends in a ragged (narrower) tile.
inline constexpr std::size_t kKernelRows = 4;

/// Depth (k) block: 256 iterations × one B tile row (32 to 128 bytes,
/// by tier) per iteration keeps the streamed B panel within 8 to 32 KiB,
/// L1-resident, while the accumulators stay in registers for the whole
/// block. It also bounds the stack micro-panels the tn and nt products
/// pack their strided operand into.
inline constexpr std::size_t kBlockK = 256;

/// STL allocator returning kAlignment-aligned storage whose *default*
/// construction is a no-op: `std::vector<double, aligned_allocator<double>>(n)`
/// yields uninitialised storage (the uninit-alloc path used for buffers
/// that are fully overwritten), while the `(n, value)` form still fills.
template <class T>
class aligned_allocator {
public:
    using value_type = T;

    aligned_allocator() noexcept = default;
    template <class U>
    aligned_allocator(const aligned_allocator<U>&) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        ::operator delete(p, n * sizeof(T), std::align_val_t{kAlignment});
    }

    /// Default construction leaves trivially-destructible elements
    /// uninitialised — this is what makes `vector(n)` an uninit alloc.
    template <class U>
    void construct(U* p) noexcept {
        ::new (static_cast<void*>(p)) U;
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args) {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    template <class U>
    struct rebind {
        using other = aligned_allocator<U>;
    };

    friend bool operator==(const aligned_allocator&, const aligned_allocator&) noexcept {
        return true;
    }
};

// ---------------------------------------------------------------------------
// Dense products. All buffers are row-major. Each call computes output
// rows [r0, r1) only, so a caller can split work across threads by rows;
// the output range needs no pre-zeroing (the kernels fully define it).
// Output must not alias either input.
// ---------------------------------------------------------------------------

/// C(m×n) = A(m×k) · B(k×n) — scalar i-k-j reference.
void matmul_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                   std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(m×k) · B(k×n) — cache-blocked, register-tiled, on the
/// dispatched ISA tier.
void matmul_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                    std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(m×k) · B(n×k)ᵀ — scalar i-j-k reference.
void matmul_nt_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(m×k) · B(n×k)ᵀ — the axpy tiles over Bᵀ packed per
/// k-block micro-panel, on the dispatched ISA tier.
void matmul_nt_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                       std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(k×m)ᵀ · B(k×n) — scalar k-outer reference.
void matmul_tn_scalar(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                      std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// C(m×n) = A(k×m)ᵀ · B(k×n) — cache-blocked, register-tiled, on the
/// dispatched ISA tier.
void matmul_tn_blocked(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
                       std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// ISA tiers of the blocked products, narrowest first.
enum class isa : unsigned char { baseline, avx2, avx512 };
inline constexpr isa kAllIsas[] = {isa::baseline, isa::avx2, isa::avx512};

/// "sse2" (or "generic" off x86-64), "avx2", "avx512".
[[nodiscard]] const char* isa_name(isa tier) noexcept;

/// True when this build and this CPU can run \p tier.
[[nodiscard]] bool isa_supported(isa tier) noexcept;

/// The widest supported tier, chosen once per process; the `*_blocked`
/// entry points above run on it.
[[nodiscard]] isa dispatched_isa() noexcept;

using product_fn = void (*)(const double* a, const double* b, double* c, std::size_t m,
                            std::size_t k, std::size_t n, std::size_t r0, std::size_t r1) noexcept;

/// One tier's blocked products, with the `*_blocked` signatures.
struct product_kernels {
    product_fn matmul;
    product_fn matmul_nt;
    product_fn matmul_tn;
};

/// The blocked products of \p tier, for tests and benches that check or
/// time each tier directly. Precondition: `isa_supported(tier)`.
[[nodiscard]] const product_kernels& products(isa tier) noexcept;

// ---------------------------------------------------------------------------
// Fused vector primitives. Plain contiguous loops with restrict-style
// signatures that the compiler auto-vectorises; shared by the matrix
// elementwise operators, the tape's pointwise backprops and the row
// transforms. `dot` accumulates strictly left-to-right (it feeds
// bit-identity-sensitive paths), so it vectorises only across calls.
// ---------------------------------------------------------------------------

/// y[i] += alpha * x[i].
void axpy(std::size_t n, double alpha, const double* x, double* y) noexcept;

/// Σ x[i]·y[i], accumulated in index order.
[[nodiscard]] double dot(std::size_t n, const double* x, const double* y) noexcept;

/// x[i] *= alpha (row-scale when handed one row).
void scale(std::size_t n, double alpha, double* x) noexcept;

}  // namespace fisone::linalg::kernels
