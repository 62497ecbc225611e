#pragma once

/// \file inputs.hpp
/// Everything the benchmark feeds the system, made from `--seed` alone:
/// the building corpora, request orders, the skewed read distribution and
/// the append schedule. The same seed gives the same inputs.
///
/// Corpora are stratified by cost. Building `i` has `3 + i % 5` floors and
/// about 200, 240 or 280 scans in total (`(i / 5) % 3`), so every 15
/// consecutive indices hold each of the 15 size classes once. A run that
/// stops partway through a pass then still sees the same mix of sizes,
/// which keeps medians steady from seed to seed.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/rf_sample.hpp"
#include "util/rng.hpp"

namespace perfbench {

inline constexpr std::size_t k_size_classes = 15;

/// A generated building and the scans held back from it: the store gets
/// `base`, appends carry `reserve` a few scans at a time (interleaved over
/// floors, so every append adds scans from several floors).
struct seeded_building {
    data::building base;
    std::vector<data::rf_sample> reserve;
};

/// Building \p index of the corpus seeded by \p seed, named
/// `<prefix>-<index>`, with \p reserve_per_floor scans per floor held back.
[[nodiscard]] seeded_building make_building(const std::string& prefix, std::uint64_t seed,
                                            std::size_t index, std::size_t reserve_per_floor);

/// \p count buildings (indices 0..count-1) with their reserves.
[[nodiscard]] std::vector<seeded_building> make_buildings(const std::string& prefix,
                                                          std::uint64_t seed, std::size_t count,
                                                          std::size_t reserve_per_floor);

/// The store corpus: the `base` of every building, in index order.
[[nodiscard]] data::corpus corpus_of(const std::string& name,
                                     const std::vector<seeded_building>& buildings);

/// A permutation of 0..count-1 (count a multiple of `k_size_classes`) that
/// keeps each block of 15 together, with the blocks and the indices inside
/// each block shuffled — any prefix is within one building per class of an
/// even mix.
[[nodiscard]] std::vector<std::size_t> stratified_order(std::size_t count, util::rng& gen);

/// Zipf(1) over ranks 0..n-1: rank r is drawn with weight 1 / (r + 1).
class zipf_picker {
public:
    explicit zipf_picker(std::size_t n);
    [[nodiscard]] std::size_t pick(util::rng& gen) const;

private:
    std::vector<double> cdf_;
};

/// \p count append records over \p hot, cycling through stratified passes
/// of the hot set; each carries \p scans_per_append reserved scans of its
/// target (a target whose reserve runs out starts over at its first
/// reserved scan).
[[nodiscard]] std::vector<data::building> make_append_schedule(
    const std::vector<seeded_building>& hot, std::size_t count, std::size_t scans_per_append,
    util::rng& gen);

/// One delta record: the scans [first, first + n) (wrapping) of \p b's
/// reserve, as a valid building block carrying \p b's name.
[[nodiscard]] data::building delta_record(const seeded_building& b, std::size_t first,
                                          std::size_t n);

}  // namespace perfbench
