#pragma once

/// \file layers.hpp
/// Per-layer probes of the traced run. Each times calls into one module's
/// public functions directly, on the workload's own inputs, so a layer's
/// cost is measured without the layers above it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/rf_sample.hpp"

namespace perfbench {

/// Mean per-building milliseconds of `core::fis_one::run` and of the same
/// stages called one by one (graph build, RF-GNN train and embed, UPGMA,
/// indexing), over \p buildings at their corpus indices \p indices.
struct pipeline_probe {
    double run_ms = 0.0;
    double graph_ms = 0.0;
    double train_ms = 0.0;
    double embed_ms = 0.0;
    double upgma_ms = 0.0;
    double index_ms = 0.0;
    bool replica_matches = true;  ///< the staged calls reproduced `run`'s floors
};
[[nodiscard]] pipeline_probe probe_pipeline(const std::vector<data::building>& buildings,
                                            const std::vector<std::size_t>& indices);

/// GFLOP/s of `linalg::matmul`, `matmul_nt` and `matmul_tn` at the RF-GNN
/// hop shapes of the served profile (flops counted as 2*m*k*n).
[[nodiscard]] double probe_matmul_gflops();

/// `service::floor_service` (2 workers) fed \p buildings without the wire.
struct service_probe {
    double buildings_per_s = 0.0;
    double queue_wait_ms = 0.0;  ///< median submit-to-start wait
};
[[nodiscard]] service_probe probe_service(const std::vector<data::building>& buildings,
                                          const std::vector<std::size_t>& indices);

/// `api::server` loopback session: mean microseconds of a cached
/// `identify_building`, and of one encode/decode round of an
/// `identify_resident` request and its `building_response`.
struct api_probe {
    double hit_us = 0.0;
    double codec_us = 0.0;
};
[[nodiscard]] api_probe probe_api(const data::building& b, std::size_t index);

/// A fresh `federation::federated_server` over \p store_dir: mean
/// milliseconds of the first resolution of each of \p names (the
/// `federation.resident_load` span), then median microseconds of a cached
/// `identify_resident` for `names.front()` through a loopback session.
struct federation_probe {
    double resident_load_ms = 0.0;
    double hit_us = 0.0;
};
[[nodiscard]] federation_probe probe_federation(const std::string& store_dir,
                                                const std::vector<std::string>& names);

/// Median microseconds of a cached `identify_resident` round trip over TCP.
[[nodiscard]] double probe_tcp_hit_us(std::uint16_t port, const std::string& name);

/// Median milliseconds of opening \p store_dir and streaming its effective
/// view through `data::content_hash` — the scan every append pays.
[[nodiscard]] double probe_effective_scan_ms(const std::string& store_dir);

/// Median milliseconds of `ingest::append_scans` of \p records, one per
/// call, on a copy of \p store_dir made under \p scratch_dir.
[[nodiscard]] double probe_append_ms(const std::string& store_dir,
                                     const std::string& scratch_dir,
                                     const std::vector<data::building>& records);

}  // namespace perfbench
