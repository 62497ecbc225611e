#include "inputs.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/batch_runner.hpp"
#include "sim/building_generator.hpp"

namespace perfbench {

seeded_building make_building(const std::string& prefix, std::uint64_t seed, std::size_t index,
                              std::size_t reserve_per_floor) {
    static constexpr std::size_t k_totals[3] = {200, 240, 280};
    const std::size_t floors = 3 + index % 5;
    const std::size_t total = k_totals[(index / 5) % 3];
    const std::size_t per_floor = (total + floors / 2) / floors;

    sim::building_spec spec;
    spec.name = prefix + "-" + std::to_string(index);
    spec.num_floors = floors;
    spec.samples_per_floor = per_floor + reserve_per_floor;
    spec.aps_per_floor = 12;
    spec.seed = fisone::runtime::task_seed(seed, index);
    data::building full = sim::generate_building(spec).building;

    // The generator emits floors as contiguous runs of scans; keep the
    // first `per_floor` of each floor and hold back the rest.
    const std::size_t run = per_floor + reserve_per_floor;
    seeded_building out;
    out.base = full;
    out.base.samples.clear();
    std::vector<std::vector<data::rf_sample>> held(floors);
    std::size_t labeled = 0;
    for (std::size_t i = 0; i < full.samples.size(); ++i) {
        const std::size_t f = i / run;
        if (i % run < per_floor) {
            if (i == full.labeled_sample) labeled = out.base.samples.size();
            out.base.samples.push_back(full.samples[i]);
        } else {
            held[f].push_back(full.samples[i]);
        }
    }
    // The generator labels a random bottom-floor scan; if it was held back,
    // label the bottom-floor scan at the same position within the kept run.
    if (full.labeled_sample % run >= per_floor) labeled = full.labeled_sample % per_floor;
    out.base.labeled_sample = labeled;
    out.base.labeled_floor = 0;
    out.base.validate();

    for (std::size_t k = 0; k < reserve_per_floor; ++k)
        for (std::size_t f = 0; f < floors; ++f) out.reserve.push_back(held[f][k]);
    return out;
}

std::vector<seeded_building> make_buildings(const std::string& prefix, std::uint64_t seed,
                                            std::size_t count, std::size_t reserve_per_floor) {
    std::vector<seeded_building> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(make_building(prefix, seed, i, reserve_per_floor));
    return out;
}

data::corpus corpus_of(const std::string& name, const std::vector<seeded_building>& buildings) {
    data::corpus c;
    c.name = name;
    c.buildings.reserve(buildings.size());
    for (const seeded_building& b : buildings) c.buildings.push_back(b.base);
    return c;
}

std::vector<std::size_t> stratified_order(std::size_t count, util::rng& gen) {
    if (count == 0 || count % k_size_classes != 0)
        throw std::invalid_argument("stratified_order: count must be a multiple of 15");
    std::vector<std::size_t> blocks(count / k_size_classes);
    for (std::size_t b = 0; b < blocks.size(); ++b) blocks[b] = b;
    gen.shuffle(blocks);
    std::vector<std::size_t> order;
    order.reserve(count);
    for (const std::size_t b : blocks) {
        std::vector<std::size_t> block(k_size_classes);
        for (std::size_t k = 0; k < k_size_classes; ++k) block[k] = b * k_size_classes + k;
        gen.shuffle(block);
        order.insert(order.end(), block.begin(), block.end());
    }
    return order;
}

zipf_picker::zipf_picker(std::size_t n) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("zipf_picker: n must be > 0");
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
}

std::size_t zipf_picker::pick(util::rng& gen) const {
    const double u = gen.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1 : static_cast<std::size_t>(it - cdf_.begin());
}

data::building delta_record(const seeded_building& b, std::size_t first, std::size_t n) {
    if (b.reserve.empty()) throw std::invalid_argument("delta_record: no reserved scans");
    data::building rec;
    rec.name = b.base.name;
    rec.num_floors = b.base.num_floors;
    rec.num_macs = b.base.num_macs;
    for (std::size_t k = 0; k < n; ++k)
        rec.samples.push_back(b.reserve[(first + k) % b.reserve.size()]);
    rec.labeled_sample = 0;
    rec.labeled_floor = rec.samples.front().true_floor;
    return rec;
}

std::vector<data::building> make_append_schedule(const std::vector<seeded_building>& hot,
                                                 std::size_t count, std::size_t scans_per_append,
                                                 util::rng& gen) {
    std::vector<data::building> records;
    records.reserve(count);
    std::vector<std::size_t> cursor(hot.size(), 0);
    std::vector<std::size_t> pass;
    std::size_t at = 0;
    for (std::size_t k = 0; k < count; ++k) {
        if (at == pass.size()) {
            pass = stratified_order(hot.size(), gen);
            at = 0;
        }
        const std::size_t target = pass[at++];
        records.push_back(delta_record(hot[target], cursor[target], scans_per_append));
        cursor[target] += scans_per_append;
    }
    return records;
}

}  // namespace perfbench
