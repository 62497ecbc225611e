#pragma once

/// \file workloads.hpp
/// The two workloads, each run against a fresh fleet over loopback TCP
/// with two closed-loop reader connections sending `identify_resident`:
///
///  - `cold_fleet`: every request `fresh` (the pipeline runs) over 60 of a
///    75-building store, in stratified passes. Least-queue-depth routing
///    gives each of the two requests in flight its own backend worker, so
///    latency holds no queueing. Five closed-loop appends before the
///    measured phase and five after, to a 5-floor building outside the
///    read set, probe append latency and freshness on the idle fleet.
///  - `ingest_mixed`: a 240-building store whose first 15 buildings are
///    filled into the result caches during set-up and then read warm
///    (Zipf(1), content-hash affinity routing) while an open-loop appender
///    lands one 6-scan `append_scans` batch on them every second and a
///    watcher receives the re-identification pushes.

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct run_config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;  ///< scratch directory for stores (created, then removed)
};

struct run_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    metric_list metrics;
};

/// True when \p name is one of the workloads.
[[nodiscard]] bool known_workload(const std::string& name);

/// Run one workload: end-to-end metrics, or with `trace` the per-layer ones.
/// Progress and a human-readable summary go to stderr.
[[nodiscard]] run_result run_workload(const run_config& cfg);

}  // namespace perfbench
