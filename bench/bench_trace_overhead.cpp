/// \file bench_trace_overhead.cpp
/// The observability cost contracts, measured. Two phases, same method:
/// after one untimed warm-up pass per side, run R paired repetitions,
/// alternating which side goes first so drift and ordering effects land
/// on both sides equally. Each rep yields one on/off wall-time ratio; the
/// overhead is the median of those ratios, and the gate is decided on a
/// distribution-free 95% confidence interval for that median (order
/// statistics of the sorted ratios, exact under the sign test). A phase
/// fails when the interval's lower bound exceeds --max-overhead: the data
/// show, at 95% confidence, that the instrument costs more than the
/// contract allows. The interquartile spread of the ratios is printed
/// beside the decision so a reader can see how noisy the host was.
///
/// **Tracing phase** (loopback transport, cache off so every pass does
/// real pipeline work): tracing off vs tracing on.
///  - tracing on vs off produces byte-identical input-order NDJSON
///    re-exports (spans observe, never steer);
///  - the traced run's buildings/sec is within --max-overhead percent
///    (default 5) of the untraced run.
///
/// **Telemetry phase** (TCP transport): telemetry ticking disabled
/// (`telemetry_window_ms = 0`, no subscriber) vs a 5 ms tick plus an
/// active `subscribe_stats` stream drinking every window. A pass sends the
/// fleet as many times over as it takes to span at least 40 windows (sized
/// once, on the fastest of three untimed passes), so the gate bounds
/// steady-state ticking and streaming, not one tick at pass start.
///  - both runs produce byte-identical NDJSON (telemetry observes, never
///    steers);
///  - the instrumented run stays within --max-overhead percent;
///  - every instrumented pass received at least 20 `stats_update` frames
///    while it ran (the run measured the real thing); a pass with fewer
///    fails the bench.
///
/// Run:  ./bench_trace_overhead [--quick] [--json] [--out BENCH_trace.json]
///                              [--buildings N] [--samples-per-floor M]
///                              [--reps R] [--max-overhead PCT] [--seed S]
///
///  --quick   CI-sized corpus and rep count (about a minute)
///  --json    write the JSON report (schema `fisone-bench-trace/v3`) to --out
///
/// The JSON schema is documented in README.md § Observability.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "api/client.hpp"
#include "api/codec.hpp"
#include "api/server.hpp"
#include "federation/federated_server.hpp"
#include "net/socket.hpp"
#include "net/tcp_server.hpp"
#include "obs/trace.hpp"
#include "service/ndjson_export.hpp"
#include "sim/building_generator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace fisone;
using clock_type = std::chrono::steady_clock;

std::vector<data::building> make_fleet(std::size_t count, std::size_t samples_per_floor,
                                       std::uint64_t seed) {
    std::vector<data::building> fleet;
    fleet.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        sim::building_spec spec;
        spec.name = "trace-fleet-" + std::to_string(i);
        spec.num_floors = 3 + i % 4;
        spec.samples_per_floor = samples_per_floor;
        spec.aps_per_floor = 12;
        spec.seed = seed + i;
        fleet.push_back(sim::generate_building(spec).building);
    }
    return fleet;
}

api::server_config make_server_config(std::uint64_t seed) {
    api::server_config cfg;
    cfg.service.pipeline.gnn.embedding_dim = 16;
    cfg.service.pipeline.gnn.epochs = 3;
    cfg.service.pipeline.gnn.walks.walks_per_node = 3;
    // One worker and one kernel thread: a pass's wall time is the sum of
    // its buildings' work, not a makespan that hinges on scheduling.
    cfg.service.pipeline.num_threads = 1;
    cfg.service.num_threads = 1;
    cfg.service.seed = seed;
    cfg.enable_cache = false;  // every pass does the full pipeline
    return cfg;
}

/// One full pass: fresh server, submit the fleet, flush, re-export.
std::pair<std::string, double> run_pass(const std::vector<data::building>& fleet,
                                        std::uint64_t seed) {
    api::server srv(make_server_config(seed));
    api::client cli(srv);
    const clock_type::time_point start = clock_type::now();
    for (std::size_t i = 0; i < fleet.size(); ++i) static_cast<void>(cli.identify(fleet[i], i));
    static_cast<void>(cli.flush());
    const double wall = std::chrono::duration<double>(clock_type::now() - start).count();
    std::ostringstream out;
    service::export_input_order(out, cli.reports());
    return {out.str(), wall};
}

struct tcp_pass {
    std::string ndjson;
    double wall = 0.0;
    std::uint64_t stats_updates = 0;  ///< stats_update frames received during the timed span
};

/// One full pass over the TCP front door: fresh one-backend fleet + fresh
/// `tcp_server` with the given telemetry window, optionally an active
/// `subscribe_stats` stream drinking every window while the fleet is
/// identified \p rounds times over (one corpus index per copy) over a
/// single framed connection. The wall clock covers the identify workload
/// only (send of first frame to last response), so the off/on comparison
/// isolates what ticking + pushing costs the serve path.
tcp_pass run_tcp_pass(const std::vector<data::building>& fleet, std::size_t rounds,
                      std::uint64_t seed, std::uint32_t telemetry_window_ms,
                      bool with_subscriber) {
    const api::server_config scfg = make_server_config(seed);
    federation::federation_config fcfg;
    fcfg.service = scfg.service;
    fcfg.num_backends = 1;
    fcfg.enable_cache = scfg.enable_cache;
    federation::federated_server srv(fcfg);
    net::tcp_server_config ncfg;
    ncfg.telemetry_window_ms = telemetry_window_ms;
    net::tcp_server front(srv, ncfg);
    std::thread loop([&front] { front.run(); });

    tcp_pass out;
    std::atomic<std::uint64_t> updates{0};
    std::optional<net::frame_conn> sub;
    std::thread sub_reader;
    if (with_subscriber) {
        sub.emplace("127.0.0.1", front.port());
        api::subscribe_stats_request s;
        s.correlation_id = 1;
        s.interval_ms = 0;  // every window
        sub->send(api::encode(api::request(s)));
        sub_reader = std::thread([&] {
            while (std::optional<std::string> frame = sub->read_frame()) {
                const api::decode_result<api::response> r = api::decode_response(*frame);
                if (r.ok() && std::holds_alternative<api::stats_update_response>(*r.value))
                    ++updates;
            }
        });
    }

    const std::size_t total = fleet.size() * rounds;
    std::vector<runtime::building_report> reports;
    const std::uint64_t updates_before = updates.load();
    const clock_type::time_point start = clock_type::now();
    {
        net::frame_conn conn("127.0.0.1", front.port());
        std::thread writer([&] {
            for (std::size_t i = 0; i < total; ++i) {
                api::identify_building_request req;
                req.correlation_id = i + 1;
                req.has_index = true;
                req.corpus_index = i;
                req.b = fleet[i % fleet.size()];
                conn.send(api::encode(api::request(req)));
            }
            conn.shutdown_write();
        });
        while (std::optional<std::string> frame = conn.read_frame()) {
            const api::decode_result<api::response> r = api::decode_response(*frame);
            if (!r.ok()) throw std::runtime_error("tcp pass: undecodable frame");
            if (const auto* b = std::get_if<api::building_response>(&*r.value))
                reports.push_back(b->report);
        }
        writer.join();
    }
    out.wall = std::chrono::duration<double>(clock_type::now() - start).count();
    out.stats_updates = updates.load() - updates_before;

    if (sub) sub->shutdown_write();  // server sees EOF, closes the stream
    front.drain();
    loop.join();
    if (sub_reader.joinable()) sub_reader.join();

    if (reports.size() != total)
        throw std::runtime_error("tcp pass: expected " + std::to_string(total) +
                                 " reports, got " + std::to_string(reports.size()));
    std::ostringstream nd;
    service::export_input_order(nd, std::move(reports));
    out.ndjson = nd.str();
    return out;
}

/// Paired per-rep timings of one phase and the overhead decided on them.
struct phase_result {
    std::vector<double> off_s, on_s;  ///< wall seconds per rep, per side
    std::vector<double> ratios;       ///< on / off, one per rep, sorted
    bool identical = false;           ///< NDJSON equal with the instrument off and on

    [[nodiscard]] static double pct(double ratio) { return (ratio - 1.0) * 100.0; }
    [[nodiscard]] double median_pct() const { return pct(util::percentile_sorted(ratios, 50)); }
    [[nodiscard]] double q1_pct() const { return pct(util::percentile_sorted(ratios, 25)); }
    [[nodiscard]] double q3_pct() const { return pct(util::percentile_sorted(ratios, 75)); }

    /// Distribution-free two-sided 95% confidence interval for the median
    /// ratio: [x(k), x(n+1-k)] of the sorted ratios, with k the largest
    /// rank such that P(Binomial(n, 1/2) < k) <= 2.5%. Needs n >= 6 (so
    /// that k >= 1), which main() checks.
    [[nodiscard]] std::pair<double, double> median_ci_pct() const {
        const std::size_t n = ratios.size();
        double tail = std::pow(0.5, static_cast<double>(n));  // P(B = 0)
        double term = tail;
        std::size_t k = 0;
        while (k < n / 2 && tail <= 0.025) {
            ++k;  // P(B < k) <= 2.5%, so rank k qualifies
            term *= static_cast<double>(n - k + 1) / static_cast<double>(k);
            tail += term;  // now P(B <= k)
        }
        return {pct(ratios[k - 1]), pct(ratios[n - k])};
    }
    [[nodiscard]] double median_seconds(bool on) const {
        return util::percentile(on ? on_s : off_s, 50);
    }
};

/// Run one phase: an untimed warm-up pass per side, then \p reps paired
/// reps whose order alternates (off-first on even reps, on-first on odd
/// ones). \p pass(on) runs one pass and returns (ndjson, wall seconds);
/// every pass of a side must reproduce that side's warm-up NDJSON.
template <class Pass>
phase_result run_phase(const char* label, std::size_t reps, Pass&& pass) {
    const std::string off_ref = pass(false).first;
    const std::string on_ref = pass(true).first;
    phase_result out;
    out.identical = off_ref == on_ref;
    const auto timed = [&](bool on) {
        auto [ndjson, wall] = pass(on);
        if (ndjson != (on ? on_ref : off_ref))
            throw std::runtime_error(std::string(label) + (on ? " on" : " off") +
                                     " reps diverged from each other");
        (on ? out.on_s : out.off_s).push_back(wall);
    };
    for (std::size_t rep = 0; rep < reps; ++rep) {
        const bool on_first = rep % 2 == 1;
        timed(on_first);
        timed(!on_first);
        out.ratios.push_back(out.on_s.back() / out.off_s.back());
        std::cerr << label << " rep " << (rep + 1) << '/' << reps << ": off "
                  << out.off_s.back() << "s, on " << out.on_s.back() << "s\n";
    }
    std::sort(out.ratios.begin(), out.ratios.end());
    return out;
}

/// Print one phase's table and overhead line; true when the gate fails.
bool report_phase(const std::string& title, const std::string& instrument,
                  const std::string& on_label, const std::string& on_count,
                  const phase_result& r, std::size_t buildings, double max_overhead) {
    const auto rate = [&](double s) {
        return util::table_printer::num(s > 0.0 ? static_cast<double>(buildings) / s : 0.0, 2);
    };
    util::table_printer table(title);
    table.header({instrument, "median wall s", "buildings/s", on_label});
    table.row({"off", util::table_printer::num(r.median_seconds(false), 3),
               rate(r.median_seconds(false)), "0"});
    table.row({"on", util::table_printer::num(r.median_seconds(true), 3),
               rate(r.median_seconds(true)), on_count});
    table.print(std::cout);
    const auto [lo, hi] = r.median_ci_pct();
    const bool fails = lo > max_overhead;
    const char* verdict = fails ? "BROKEN" : hi <= max_overhead ? "holds" : "not shown broken";
    std::cout << "\nOverhead: median " << util::table_printer::num(r.median_pct(), 2)
              << "% over " << r.ratios.size() << " paired reps, 95% CI ["
              << util::table_printer::num(lo, 2) << "%, " << util::table_printer::num(hi, 2)
              << "%], IQR [" << util::table_printer::num(r.q1_pct(), 2) << "%, "
              << util::table_printer::num(r.q3_pct(), 2) << "%] (contract: <= "
              << util::table_printer::num(max_overhead, 1) << "%: " << verdict
              << ").  NDJSON byte-identical " << instrument
              << " on/off: " << (r.identical ? "yes" : "NO") << "\n\n";
    return fails;
}

void write_phase_json(std::ostream& f, const std::string& prefix, const phase_result& r) {
    const auto [lo, hi] = r.median_ci_pct();
    f << "  \"" << prefix << "overhead_pct\": " << bench::json_num(r.median_pct()) << ",\n";
    f << "  \"" << prefix << "overhead_ci_low_pct\": " << bench::json_num(lo) << ",\n";
    f << "  \"" << prefix << "overhead_ci_high_pct\": " << bench::json_num(hi) << ",\n";
    f << "  \"" << prefix << "overhead_q1_pct\": " << bench::json_num(r.q1_pct()) << ",\n";
    f << "  \"" << prefix << "overhead_q3_pct\": " << bench::json_num(r.q3_pct()) << ",\n";
}

}  // namespace

int main(int argc, char** argv) try {
    const util::cli_args args(argc, argv);
    const bool quick = args.has("quick");
    const bool emit_json = args.has("json");
    const std::string out_path = args.get("out", "BENCH_trace.json");
    const auto buildings =
        static_cast<std::size_t>(args.get_int("buildings", quick ? 4 : 12));
    const auto samples =
        static_cast<std::size_t>(args.get_int("samples-per-floor", quick ? 20 : 40));
    const auto reps = static_cast<std::size_t>(args.get_int("reps", quick ? 81 : 31));
    const double max_overhead = static_cast<double>(args.get_int("max-overhead", 5));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    if (reps < 6) throw std::invalid_argument("--reps must be >= 6 for a 95% interval");

    std::cerr << "Synthesising " << buildings << " buildings (" << samples
              << " scans/floor)...\n";
    const std::vector<data::building> fleet = make_fleet(buildings, samples, seed);

    std::uint64_t spans_recorded = 0;
    const phase_result trace = run_phase("tracing", reps, [&](bool on) {
        obs::reset();  // fresh tape per pass: bounded memory, honest count
        obs::set_tracing_enabled(on);
        auto pass = run_pass(fleet, seed);
        obs::set_tracing_enabled(false);
        if (on) spans_recorded = obs::stats().recorded;
        return pass;
    });

    // Telemetry phase: the fleet through the TCP front door, telemetry
    // ticking off vs a fast window plus a live subscribe_stats stream,
    // sent enough times over that a pass spans k_target_windows windows.
    const std::uint32_t tel_window_ms = 5;
    // A tick lands up to ~1.5 windows after the previous one (the loop
    // re-arms from the tick's own time and rounds its wait up a ms), so
    // passes are sized at twice the windows the gate requires.
    constexpr std::uint64_t k_min_updates = 20;  // fewer fails the pass
    constexpr double k_target_windows = 40.0;
    double one_round = std::numeric_limits<double>::max();
    for (int i = 0; i < 3; ++i)
        one_round = std::min(one_round, run_tcp_pass(fleet, 1, seed, 0, false).wall);
    const auto rounds = static_cast<std::size_t>(
        std::max(1.0, std::ceil(k_target_windows * tel_window_ms * 1e-3 / one_round)));
    std::cerr << "Telemetry phase: TCP passes of " << rounds << " x the fleet, window off vs "
              << tel_window_ms << "ms + subscriber...\n";
    std::uint64_t stats_updates = std::numeric_limits<std::uint64_t>::max();
    const phase_result tel = run_phase("telemetry", reps, [&](bool on) {
        tcp_pass p = run_tcp_pass(fleet, rounds, seed, on ? tel_window_ms : 0, on);
        if (on) {
            if (p.stats_updates < k_min_updates)
                throw std::runtime_error(
                    "telemetry pass received " + std::to_string(p.stats_updates) +
                    " stats_update frames, fewer than " + std::to_string(k_min_updates) +
                    ": the pass did not span enough windows to measure ticking");
            stats_updates = std::min(stats_updates, p.stats_updates);
        }
        return std::pair<std::string, double>{std::move(p.ndjson), p.wall};
    });

    const std::string paired = ", " + std::to_string(reps) + " paired reps";
    const bool trace_fails =
        report_phase("Tracing overhead — " + std::to_string(buildings) + " buildings" + paired,
                     "tracing", "spans", std::to_string(spans_recorded), trace, buildings,
                     max_overhead);
    const bool tel_fails =
        report_phase("Telemetry overhead — TCP front door, " + std::to_string(rounds) +
                         " x the fleet per pass" + paired,
                     "telemetry", "min stats_updates", std::to_string(stats_updates), tel,
                     buildings * rounds, max_overhead);

    if (emit_json) {
        std::ofstream f(out_path);
        if (!f) {
            std::cerr << "bench_trace_overhead: cannot open " << out_path << " for writing\n";
            return EXIT_FAILURE;
        }
        const auto per_sec = [&](double s) {
            return bench::json_num(s > 0.0 ? static_cast<double>(buildings) / s : 0.0);
        };
        f << "{\n";
        f << "  \"schema\": \"fisone-bench-trace/v3\",\n";
        f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        f << "  \"buildings\": " << buildings << ",\n";
        f << "  \"samples_per_floor\": " << samples << ",\n";
        f << "  \"reps\": " << reps << ",\n";
        f << "  \"max_overhead_pct\": " << bench::json_num(max_overhead) << ",\n";
        f << "  \"untraced_seconds\": " << bench::json_num(trace.median_seconds(false)) << ",\n";
        f << "  \"traced_seconds\": " << bench::json_num(trace.median_seconds(true)) << ",\n";
        f << "  \"untraced_buildings_per_sec\": " << per_sec(trace.median_seconds(false))
          << ",\n";
        f << "  \"traced_buildings_per_sec\": " << per_sec(trace.median_seconds(true)) << ",\n";
        write_phase_json(f, "", trace);
        f << "  \"spans_per_traced_run\": " << spans_recorded << ",\n";
        f << "  \"ndjson_identical\": " << (trace.identical ? "true" : "false") << ",\n";
        f << "  \"telemetry_window_ms\": " << tel_window_ms << ",\n";
        f << "  \"telemetry_fleet_rounds\": " << rounds << ",\n";
        f << "  \"telemetry_off_seconds\": " << bench::json_num(tel.median_seconds(false))
          << ",\n";
        f << "  \"telemetry_on_seconds\": " << bench::json_num(tel.median_seconds(true))
          << ",\n";
        write_phase_json(f, "telemetry_", tel);
        f << "  \"min_stats_updates_per_pass\": " << stats_updates << ",\n";
        f << "  \"telemetry_ndjson_identical\": " << (tel.identical ? "true" : "false")
          << "\n";
        f << "}\n";
        std::cout << "JSON perf trajectory: " << out_path << "\n";
    }

    if (!trace.identical) {
        std::cerr << "bench_trace_overhead: NDJSON diverged between tracing on and off\n";
        return EXIT_FAILURE;
    }
    if (spans_recorded == 0) {
        std::cerr << "bench_trace_overhead: traced run recorded zero spans — "
                     "instrumentation is not reaching the pipeline\n";
        return EXIT_FAILURE;
    }
    if (trace_fails) {
        std::cerr << "bench_trace_overhead: tracing costs more than " << max_overhead
                  << "% of throughput at 95% confidence\n";
        return EXIT_FAILURE;
    }
    if (!tel.identical) {
        std::cerr << "bench_trace_overhead: NDJSON diverged between telemetry on and off\n";
        return EXIT_FAILURE;
    }
    if (tel_fails) {
        std::cerr << "bench_trace_overhead: telemetry + subscribe_stats costs more than "
                  << max_overhead << "% of throughput at 95% confidence\n";
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
} catch (const std::exception& e) {
    std::cerr << "bench_trace_overhead: " << e.what() << '\n';
    return EXIT_FAILURE;
}
