#pragma once

/// \file parallel_policy.hpp
/// The single place where the numeric kernels decide *whether* and *how
/// finely* to use a thread pool. Before this header existed the
/// thresholds were duplicated per kernel (a `kMinParallelFlops` inside
/// matrix.cpp, a `row_grain` inside thread_pool.hpp); tuning one of them
/// meant hunting through every hot path. Everything below is a pure
/// function of the problem size, never of the pool size, so the
/// decomposition — and therefore the bits — stay identical at every
/// thread count (see thread_pool.hpp for the determinism contract).

#include <cstddef>

#include "linalg/kernels.hpp"

namespace fisone::util {
class thread_pool;
}

namespace fisone::linalg {

struct parallel_policy {
    /// Minimum flop count before a kernel dispatches onto the pool at
    /// all. Pool hand-off (queue lock, condition-variable wake, future
    /// join) costs on the order of ten microseconds — tens of thousands
    /// of scalar flops. The tape's small matmuls (e.g. a 512×64 · 64×32
    /// dense layer ≈ 2·10⁶ flops) should still parallelise, but the tiny
    /// per-row products of inductive inference (1×2d · 2d×d ≈ 4·10³
    /// flops) must not pay dispatch for less math than the dispatch
    /// itself. 2¹⁸ ≈ 2.6·10⁵ flops ≈ the break-even point with a healthy
    /// margin; the old 2¹⁵ threshold made sub-dispatch-cost products
    /// eligible.
    static constexpr std::size_t min_parallel_flops = std::size_t{1} << 18;

    /// Rows per `parallel_for` chunk for row-partitioned kernels. Any
    /// grain is bit-exact (rows are independent); this one balances
    /// scheduling overhead against load skew: ~32 chunks keeps every
    /// worker busy on skewed rows without flooding the queue.
    [[nodiscard]] static constexpr std::size_t row_grain(std::size_t rows) noexcept {
        const std::size_t g = rows / 32;
        return g == 0 ? 1 : g;
    }

    /// Rows per chunk for the dense products: `row_grain` rounded up to a
    /// whole number of register tiles, so no chunk but the last ends in a
    /// ragged (narrower) tile.
    [[nodiscard]] static constexpr std::size_t matmul_row_grain(std::size_t rows) noexcept {
        constexpr std::size_t t = kernels::kKernelRows;
        return (row_grain(rows) + t - 1) / t * t;
    }

    /// Elements per chunk for flat O(n) sweeps (e.g. the UPGMA
    /// Lance–Williams row update). A chunk below this span moves less
    /// memory than the dispatch costs; `span_grain` therefore never
    /// returns less, which makes `parallel_for` collapse small sweeps
    /// into one chunk — and a one-chunk parallel_for runs inline on the
    /// caller, paying no pool overhead at all.
    static constexpr std::size_t min_span = std::size_t{8} << 10;

    [[nodiscard]] static constexpr std::size_t span_grain(std::size_t items) noexcept {
        const std::size_t g = row_grain(items);
        return g < min_span ? min_span : g;
    }

    /// Gate a kernel's pool on the flop budget: below the threshold the
    /// serial path wins, so the kernel gets a null pool and runs inline.
    [[nodiscard]] static util::thread_pool* effective(util::thread_pool* pool,
                                                     std::size_t flops) noexcept {
        return flops >= min_parallel_flops ? pool : nullptr;
    }
};

}  // namespace fisone::linalg
