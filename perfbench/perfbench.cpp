/// \file perfbench.cpp
/// The benchmark driver. Runs one workload against an in-process federated
/// fleet behind the TCP front door and prints, as the last line of stdout,
///
///   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
///
/// with the end-to-end metrics, or with `--trace 1` the per-layer ones.
/// Progress and a readable summary (each median with its latency tail) go
/// to stderr.
///
/// Usage: fisone_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                         --work-dir DIR
/// NAME is cold_fleet or ingest_mixed (see workloads.hpp).

#include <cstdio>
#include <malloc.h>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
    using namespace perfbench;
    // Two malloc arenas for the whole process: with one arena per thread,
    // which threads happen to share an arena moved peak RSS by up to half
    // from run to run, hiding what the serving code itself allocates.
    mallopt(M_ARENA_MAX, 2);
    try {
        const fisone::util::cli_args args(argc, argv);
        run_config cfg;
        cfg.workload = args.get("workload", "");
        cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
        cfg.seconds = args.get_double("seconds", 10.0);
        cfg.trace = args.get_int("trace", 0) != 0;
        cfg.work_dir = args.get("work-dir", "");
        if (!known_workload(cfg.workload))
            throw std::invalid_argument("--workload must be cold_fleet or ingest_mixed (got '" +
                                        cfg.workload + "')");
        if (cfg.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
        if (cfg.work_dir.empty()) throw std::invalid_argument("--work-dir is required");

        const run_result r = run_workload(cfg);
        std::cout << r.metrics.json(r.correct, r.attempted, r.failed) << std::endl;
        if (teardown_stuck()) exit_now(0);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fisone_perfbench: %s\n", e.what());
        if (teardown_stuck()) exit_now(1);
        return 1;
    }
}
