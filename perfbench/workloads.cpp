#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "data/corpus_store.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "runtime/batch_runner.hpp"

namespace perfbench {
namespace {

struct workload_spec {
    const char* name;
    const char* prefix;           ///< building-name prefix and corpus name
    std::size_t store_buildings;  ///< buildings in the mounted store
    std::size_t read_set;         ///< reads target the first `read_set` buildings
    bool fresh;                   ///< reads bypass the result cache (cold)
    federation::routing_policy policy;
    double append_interval_s;     ///< > 0: appends run during the measured phase
};

constexpr workload_spec k_specs[] = {
    // 30 cold targets get about 20 reads each in 40 s: enough repeats for
    // each target's fastest read (see `phase::fast_latency_ms`) to be steady.
    {"cold_fleet", "cold", 75, 30, true, federation::routing_policy::least_queue_depth, 0.0},
    // One append a second keeps the store scan each append pays (about a
    // fifth of a core at 240 buildings) from crowding the readers' CPU.
    {"ingest_mixed", "live", 240, 15, false, federation::routing_policy::content_hash_affinity,
     1.0},
};

constexpr std::size_t k_connections = 2;      // closed-loop readers
constexpr std::size_t k_setups = 3;           // set-ups per run; setup_s is their median
constexpr std::size_t k_fill_window = 8;      // cache-fill requests in flight
constexpr std::size_t k_shard_size = 8;       // buildings per store shard
constexpr std::size_t k_reserve_per_floor = 6;
constexpr std::size_t k_scans_per_append = 6;
constexpr std::size_t k_probe_appends = 5;    // idle-probe appends before and again after
constexpr std::size_t k_probe_offset = 7;     // 5 floors, 240 scans: the middle size class
constexpr double k_push_bound_s = 30.0;       // wait for outstanding pushes at most this long
constexpr double k_teardown_bound_s = 30.0;
constexpr double k_stale_slack_s = 1.0;       // a push this soon after a read still counts

const workload_spec& spec_of(const std::string& name) {
    for (const workload_spec& s : k_specs)
        if (name == s.name) return s;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

double ms(clk::time_point a, clk::time_point b) { return seconds_between(a, b) * 1e3; }

/// Mean ARI / NMI / edit-distance similarity over ok reports with ground truth.
struct accuracy {
    std::vector<double> ari, nmi, edit;
    void add(const runtime::building_report& r) {
        if (!r.ok || !r.result.has_ground_truth) return;
        ari.push_back(r.result.ari);
        nmi.push_back(r.result.nmi);
        edit.push_back(r.result.edit_distance);
    }
};

/// What one measured phase saw.
struct phase {
    double seconds = 0.0;
    clk::time_point start{};
    clk::time_point deadline{};
    closed_loop_result loop;
    std::vector<append_record> appends;
    double peak_rss_mb = 0.0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t shed = 0;

    [[nodiscard]] std::size_t in_window() const {
        return static_cast<std::size_t>(std::count_if(
            loop.reads.begin(), loop.reads.end(),
            [&](const timed_read& r) { return r.ok && r.received <= deadline; }));
    }

    /// Requests completed per second over the window, each request
    /// counting the share of its time in flight that fell inside it (so a
    /// 100 ms cold request cut by the deadline does not quantise the rate).
    [[nodiscard]] double throughput() const {
        double done = 0.0;
        for (const timed_read& r : loop.reads) {
            const double a = seconds_between(start, r.sent);
            const double b = seconds_between(start, r.received);
            if (!r.ok || b <= a) continue;
            const double overlap = std::min(b, seconds) - std::max(a, 0.0);
            if (overlap > 0.0) done += overlap / (b - a);
        }
        return done / seconds;
    }

    /// Each read target's 1st-percentile latency (nearest rank: its fastest
    /// read when it has at most 100), averaged over the targets read. On a
    /// shared host the speed of compute-bound work drifts by a third and
    /// more within a run; a target's fastest reads are what the program
    /// costs when the host lets it run, and move with the program rather
    /// than with the neighbours. The 1st percentile rather than the
    /// minimum keeps one lucky read of thousands (warm) from setting it.
    [[nodiscard]] double fast_latency_ms() const {
        std::unordered_map<std::uint32_t, std::vector<double>> by_target;
        for (const timed_read& r : loop.reads)
            if (r.ok) by_target[r.target].push_back(ms(r.sent, r.received));
        std::vector<double> fast;
        for (auto& [target, v] : by_target) {
            const double rank = std::ceil(0.01 * static_cast<double>(v.size()));
            const auto k = static_cast<std::ptrdiff_t>(std::max(rank, 1.0)) - 1;
            std::nth_element(v.begin(), v.begin() + k, v.end());
            fast.push_back(v[static_cast<std::size_t>(k)]);
        }
        return mean(fast);
    }
};

void print_timing(const char* name, const std::vector<double>& v, const char* unit) {
    const tail t = tail_of(v);
    std::fprintf(stderr, "  %-16s median %10.4f %-3s", name, median(v), unit);
    if (t.percentile > 0.0)
        std::fprintf(stderr, " | p%g %10.4f (%zu beyond, %zu samples)\n", t.percentile,
                     t.value, t.beyond, t.samples);
    else
        std::fprintf(stderr, " | no tail (%zu samples)\n", t.samples);
}

/// `<prefix>_<unit>`: the tail value; `<prefix>_pct`: its percentile;
/// `<prefix>_n`: the samples beyond it.
void add_tail(metric_list& m, const std::string& prefix, const std::vector<double>& v,
              const std::string& unit) {
    const tail t = tail_of(v);
    m.add(prefix + "_" + unit, t.value, unit);
    m.add(prefix + "_pct", t.percentile, "percentile");
    m.add(prefix + "_n", static_cast<double>(t.beyond), "count");
}

class workload_run {
public:
    workload_run(const workload_spec& spec, const run_config& cfg)
        : spec_(spec), cfg_(cfg), gen_(cfg.seed ^ 0x0be4c4e5eedULL), zipf_(spec.read_set) {
        dir_ = (std::filesystem::path(cfg.work_dir) /
                (std::string(spec.name) + "-" + std::to_string(::getpid())))
                   .string();
        store_ = dir_ + "/store";
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        buildings_ = make_buildings(spec.prefix, cfg.seed, spec.store_buildings,
                                    k_reserve_per_floor);
        for (std::size_t i = 0; i < spec.read_set; ++i) names_.push_back(buildings_[i].base.name);
        data::write_corpus_store(corpus_of(spec.prefix, buildings_), store_, k_shard_size);

        // Read orders: cold requests walk stratified passes over the set;
        // warm reads draw Zipf(1) ranks mapped to a seeded permutation.
        for (std::size_t pass = 0; pass < 64; ++pass) {
            const std::vector<std::size_t> o = stratified_order(spec.read_set, gen_);
            order_.insert(order_.end(), o.begin(), o.end());
        }
        rank_to_target_ = stratified_order(spec.read_set, gen_);
        for (std::size_t c = 0; c < k_connections; ++c) conn_gen_.push_back(gen_.split());
        if (spec.append_interval_s > 0.0) {
            const auto count = static_cast<std::size_t>(cfg.seconds / spec.append_interval_s) + 2;
            const std::vector<seeded_building> hot(buildings_.begin(),
                                                   buildings_.begin() +
                                                       static_cast<std::ptrdiff_t>(spec.read_set));
            schedule_ = make_append_schedule(hot, count, k_scans_per_append, gen_);
        }
    }

    ~workload_run() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    workload_run(const workload_run&) = delete;
    workload_run& operator=(const workload_run&) = delete;

    run_result run();

private:
    void set_up(std::size_t times);
    phase measure(double seconds);
    void idle_probe();
    void collect_pushes();
    void check_reads();
    void check_pushes();
    void trace_probes_live();
    void end_to_end_metrics();
    void per_layer_metrics();

    std::size_t next_target(std::size_t conn) {
        if (spec_.fresh) return order_[cold_cursor_.fetch_add(1) % order_.size()];
        return rank_to_target_[zipf_.pick(conn_gen_[conn])];
    }

    const workload_spec& spec_;
    run_config cfg_;
    util::rng gen_;
    std::string dir_;
    std::string store_;
    std::vector<seeded_building> buildings_;
    std::vector<std::string> names_;
    std::vector<std::size_t> order_;
    std::atomic<std::size_t> cold_cursor_{0};
    std::vector<std::size_t> rank_to_target_;
    zipf_picker zipf_;
    std::vector<util::rng> conn_gen_;
    std::vector<data::building> schedule_;
    std::size_t next_append_ = 0;
    std::size_t probe_cursor_ = 0;  ///< next reserved scan of the idle-probe building

    std::unique_ptr<fleet> fleet_;
    std::unique_ptr<watcher> watcher_;
    std::vector<double> setup_s_;
    double mount_ms_ = 0.0;
    std::vector<runtime::building_report> fill_;  ///< set-up answers by read target
    std::vector<phase> phases_;
    std::vector<append_record> appends_;          ///< every append, phases then probe
    std::vector<watcher::push> pushes_;
    std::size_t missing_pushes_ = 0;
    std::size_t stale_reads_ = 0;
    bool correct_ = true;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
    double tcp_hit_us_ = 0.0;

    run_result out_;
};

void workload_run::set_up(std::size_t times) {
    for (std::size_t s = 0; s < times; ++s) {
        const clk::time_point t0 = clk::now();
        static_cast<void>(data::corpus_store::open(store_));
        auto f = std::make_unique<fleet>(store_, spec_.policy);
        mount_ms_ = ms(t0, clk::now());
        std::vector<runtime::building_report> filled;
        if (spec_.fresh)
            load_residents(f->server(), names_);
        else
            filled = fill(f->port(), names_, k_fill_window);
        setup_s_.push_back(seconds_since(t0));
        if (s + 1 < times) {
            if (!bounded_teardown(std::move(f), k_teardown_bound_s))
                throw std::runtime_error("a set-up fleet did not tear down in time");
        } else {
            fleet_ = std::move(f);
            fill_ = std::move(filled);
        }
    }
}

phase workload_run::measure(double seconds) {
    phase p;
    p.seconds = seconds;
    const service::service_stats before = fleet_->server().stats();
    const net::tcp_server_stats front_before = fleet_->front().stats();
    reset_peak_rss();

    const clk::time_point start = clk::now();
    p.start = start;
    p.deadline = start + std::chrono::duration_cast<clk::duration>(
                             std::chrono::duration<double>(seconds));
    std::thread appender;
    std::string append_failure;
    if (spec_.append_interval_s > 0.0) {
        const std::vector<data::building> records(
            schedule_.begin() + static_cast<std::ptrdiff_t>(next_append_), schedule_.end());
        appender = std::thread([&, records] {
            try {
                p.appends = run_appends(fleet_->port(), spec_.prefix, records, start,
                                        spec_.append_interval_s, p.deadline, nullptr);
            } catch (const std::exception& e) {
                append_failure = e.what();
            }
        });
    }
    try {
        p.loop = closed_loop(
            fleet_->port(), names_, spec_.fresh, k_connections, p.deadline,
            [this](std::size_t c) { return next_target(c); }, spec_.fresh);
    } catch (...) {
        if (appender.joinable()) appender.join();
        throw;
    }
    if (appender.joinable()) appender.join();
    if (!append_failure.empty()) throw std::runtime_error(append_failure);
    p.peak_rss_mb = peak_rss_mb();
    next_append_ += p.appends.size();

    const service::service_stats after = fleet_->server().stats();
    const net::tcp_server_stats front_after = fleet_->front().stats();
    p.cache_hits = after.cache_hits - before.cache_hits;
    p.cache_misses = after.cache_misses - before.cache_misses;
    p.shed = (front_after.requests_shed_overload + front_after.requests_shed_draining) -
             (front_before.requests_shed_overload + front_before.requests_shed_draining);
    appends_.insert(appends_.end(), p.appends.begin(), p.appends.end());
    return p;
}

void workload_run::idle_probe() {
    // Appends to a building outside the read set, so the answers the
    // reads are checked against never change.
    const seeded_building& b = buildings_[spec_.read_set + k_probe_offset];
    if (!watcher_)
        watcher_ = std::make_unique<watcher>(fleet_->port(), std::vector<std::string>{b.base.name});
    std::vector<data::building> records;
    for (std::size_t k = 0; k < k_probe_appends; ++k, probe_cursor_ += k_scans_per_append)
        records.push_back(delta_record(b, probe_cursor_, k_scans_per_append));
    const std::vector<append_record> probe =
        run_appends(fleet_->port(), spec_.prefix, records, clk::now(), 0.0,
                    clk::now() + std::chrono::seconds(120), watcher_.get());
    appends_.insert(appends_.end(), probe.begin(), probe.end());
}

void workload_run::collect_pushes() {
    // Every acked dirty building must be pushed before the front door
    // stops; a push still missing at the bound is a failed operation.
    std::size_t expected = 0;
    for (const append_record& a : appends_) expected += a.ok ? a.dirty : 0;
    const std::size_t got =
        watcher_->wait_for(expected, clk::now() + std::chrono::duration_cast<clk::duration>(
                                                      std::chrono::duration<double>(
                                                          k_push_bound_s)));
    if (got < expected) {
        missing_pushes_ = expected - got;
        problems_.push_back(std::to_string(missing_pushes_) + " pushes missing after " +
                            std::to_string(k_push_bound_s) + " s");
    }
    pushes_ = watcher_->finish();
    watcher_.reset();
}

void workload_run::check_reads() {
    if (spec_.fresh) {
        // Cold: every answer must match a batch run over the same corpus.
        runtime::batch_config bc;
        bc.pipeline = served_pipeline();
        bc.seed = k_campaign_seed;
        bc.num_threads = 4;
        std::vector<data::building> read_set;
        for (std::size_t i = 0; i < names_.size(); ++i) read_set.push_back(buildings_[i].base);
        const runtime::batch_result ref = runtime::batch_runner(bc).run(read_set);
        std::vector<std::string> ref_lines;
        for (const runtime::building_report& r : ref.reports) ref_lines.push_back(result_line(r));
        std::size_t mismatches = 0;
        for (const phase& p : phases_)
            for (const timed_read& r : p.loop.reads)
                if (r.ok && p.loop.lines[r.line] != ref_lines[r.target]) ++mismatches;
        if (mismatches > 0) {
            correct_ = false;
            problems_.push_back(std::to_string(mismatches) +
                                " cold answers differ from the batch_runner reference");
        }
        return;
    }

    // Warm: a read must equal the newest push its building had when the
    // read was sent (the set-up fill when none), or a push that arrived
    // while it was in flight. Anything else is a stale read: the known
    // defect that the resident directory never sees the store's manifest
    // advance, so a cached answer outlives the appends to its building.
    // Stale reads are counted in `ingest.stale_reads`, not as failed
    // operations: how many reads land after an append depends on timing,
    // so as failures they would not repeat from run to run.
    std::vector<std::string> fill_lines;
    for (const runtime::building_report& r : fill_) fill_lines.push_back(result_line(r));
    std::unordered_map<std::string, std::vector<const watcher::push*>> by_name;
    for (const watcher::push& p : pushes_) by_name[p.name].push_back(&p);
    const auto slack = std::chrono::duration_cast<clk::duration>(
        std::chrono::duration<double>(k_stale_slack_s));
    for (const phase& p : phases_) {
        for (const timed_read& r : p.loop.reads) {
            if (!r.ok) continue;
            const std::string& line = p.loop.lines[r.line];
            const std::string* newest = &fill_lines[r.target];
            bool fresh_enough = false;
            const auto it = by_name.find(names_[r.target]);
            if (it != by_name.end()) {
                for (const watcher::push* q : it->second) {
                    if (q->received <= r.sent) newest = &q->line;
                    else if (q->received <= r.received + slack && q->line == line)
                        fresh_enough = true;
                }
            }
            if (!fresh_enough && line != *newest) ++stale_reads_;
        }
    }
    if (stale_reads_ > 0)
        problems_.push_back(std::to_string(stale_reads_) +
                            " stale reads (answered with a report older than the building's "
                            "latest push; known defect, see ingest.stale_reads)");
}

void workload_run::check_pushes() {
    // Each pushed building's last push must equal a cold run over the
    // final effective corpus at the building's index.
    std::map<std::string, const watcher::push*> last;
    for (const watcher::push& p : pushes_) {
        const auto it = last.find(p.name);
        if (it == last.end() || it->second->version <= p.version) last[p.name] = &p;
    }
    if (last.empty()) return;
    const data::corpus final_corpus = data::corpus_store::open(store_).load_all_effective();
    std::vector<std::pair<std::size_t, const watcher::push*>> jobs;
    for (std::size_t i = 0; i < final_corpus.buildings.size(); ++i) {
        const auto it = last.find(final_corpus.buildings[i].name);
        if (it != last.end()) jobs.emplace_back(i, it->second);
    }
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < 4; ++w) {
        workers.emplace_back([&] {
            for (std::size_t j = next++; j < jobs.size(); j = next++) {
                const auto [index, push] = jobs[j];
                const runtime::building_report cold = runtime::run_building_task(
                    served_pipeline(), k_campaign_seed, index, final_corpus.buildings[index], true);
                if (result_line(cold) != push->line) ++mismatches;
            }
        });
    }
    for (std::thread& t : workers) t.join();
    if (jobs.size() != last.size() || mismatches > 0) {
        correct_ = false;
        problems_.push_back(std::to_string(mismatches.load()) + " of " +
                            std::to_string(last.size()) +
                            " last pushes differ from a cold run over the final corpus");
    }
}

void workload_run::trace_probes_live() {
    // The smallest building of the set keeps the cold fill of the probe short.
    tcp_hit_us_ = probe_tcp_hit_us(fleet_->port(), names_[1]);
}

run_result workload_run::run() {
    std::fprintf(stderr, "%s: seed %llu, %zu buildings in the store, %zu read, %.1f s\n",
                 spec_.name, static_cast<unsigned long long>(cfg_.seed), buildings_.size(),
                 names_.size(), cfg_.seconds);
    set_up(cfg_.trace ? 1 : k_setups);
    // Idle workloads probe appends before and after the measured phase, so
    // the probe's median spans more than one stretch of machine speed.
    const bool idle = spec_.append_interval_s <= 0.0;
    if (idle)
        idle_probe();
    else
        watcher_ = std::make_unique<watcher>(fleet_->port(), names_);

    if (cfg_.trace) {
        // Half the run untraced, half traced: the per-layer numbers come
        // from the traced half, the difference is the tracing overhead.
        phases_.push_back(measure(cfg_.seconds / 2.0));
        obs::reset();
        obs::set_tracing_enabled(true);
        phases_.push_back(measure(cfg_.seconds / 2.0));
        obs::set_tracing_enabled(false);
    } else {
        phases_.push_back(measure(cfg_.seconds));
    }
    if (idle) idle_probe();
    collect_pushes();
    if (cfg_.trace) trace_probes_live();

    if (!bounded_teardown(std::move(fleet_), k_teardown_bound_s)) {
        ++failed_;
        problems_.push_back("fleet teardown overran its bound");
    }
    check_reads();
    check_pushes();

    for (const phase& p : phases_)
        for (const timed_read& r : p.loop.reads) {
            ++out_.attempted;
            if (!r.ok) ++failed_;
        }
    for (const append_record& a : appends_) {
        ++out_.attempted;
        if (!a.ok) ++failed_;
    }
    failed_ += missing_pushes_;
    out_.failed = failed_;
    out_.correct = correct_;

    if (cfg_.trace)
        per_layer_metrics();
    else
        end_to_end_metrics();
    for (const std::string& p : problems_) std::fprintf(stderr, "  problem: %s\n", p.c_str());
    return std::move(out_);
}

/// Timings shared by both outputs.
struct timings {
    std::vector<double> latency_ms, ack_ms, fresh_s, reindex_ms;
};

timings collect_timings(const std::vector<phase>& phases,
                        const std::vector<append_record>& appends,
                        const std::vector<watcher::push>& pushes) {
    timings t;
    for (const phase& p : phases)
        for (const timed_read& r : p.loop.reads)
            if (r.ok) t.latency_ms.push_back(ms(r.sent, r.received));
    std::unordered_map<std::uint64_t, const append_record*> by_version;
    for (const append_record& a : appends)
        if (a.ok) {
            t.ack_ms.push_back(ms(a.due, a.acked));
            by_version[a.version] = &a;
        }
    for (const watcher::push& p : pushes) {
        const auto it = by_version.find(p.version);
        if (it == by_version.end()) continue;
        t.fresh_s.push_back(seconds_between(it->second->due, p.received));
        t.reindex_ms.push_back(ms(it->second->acked, p.received));
    }
    return t;
}

void workload_run::end_to_end_metrics() {
    const phase& p = phases_.front();
    const timings t = collect_timings(phases_, appends_, pushes_);
    accuracy acc;
    if (spec_.fresh) {
        for (const runtime::building_report& r : p.loop.first_reports) acc.add(r);
    } else {
        for (const watcher::push& q : pushes_) acc.add(q.report);
    }

    metric_list& m = out_.metrics;
    m.add("latency_ms", p.fast_latency_ms(), "ms");
    m.add("ari_mean", mean(acc.ari), "ratio");
    m.add("nmi_mean", mean(acc.nmi), "ratio");
    m.add("edit_distance_mean", mean(acc.edit), "ratio");
    m.add("peak_rss_mb", p.peak_rss_mb, "MB");
    m.add("setup_s", median(setup_s_), "s");

    std::fprintf(stderr, "%s: %zu requests (%zu in the %.1f s window), %zu appends, %zu pushes, "
                         "accuracy over %zu reports\n",
                 spec_.name, p.loop.reads.size(), p.in_window(), p.seconds, appends_.size(),
                 pushes_.size(), acc.ari.size());
    std::fprintf(stderr, "  throughput       %10.4f /s; per-target 1st percentile, mean %.4f ms\n",
                 p.throughput(), p.fast_latency_ms());
    print_timing("latency", t.latency_ms, "ms");
    print_timing("append_ack", t.ack_ms, "ms");
    print_timing("freshness", t.fresh_s, "s");
    std::fprintf(stderr, "  setup_s over %zu set-ups:", setup_s_.size());
    for (const double s : setup_s_) std::fprintf(stderr, " %.4f", s);
    std::fprintf(stderr, "\n");
}

void workload_run::per_layer_metrics() {
    const phase& untraced = phases_.front();
    const phase& traced = phases_.back();
    const timings t = collect_timings(phases_, appends_, pushes_);
    metric_list& m = out_.metrics;
    std::vector<double> untraced_latency_ms;
    for (const timed_read& r : untraced.loop.reads)
        if (r.ok) untraced_latency_ms.push_back(ms(r.sent, r.received));

    // Pipeline stages on one building of each floor count, spread over
    // the three scan totals (indices 0, 6, 12, 3, 9).
    std::vector<data::building> sample;
    std::vector<std::size_t> indices = {0, 6, 12, 3, 9};
    for (const std::size_t i : indices) sample.push_back(buildings_[i].base);
    const pipeline_probe pp = probe_pipeline(sample, indices);
    if (!pp.replica_matches)
        problems_.push_back("staged pipeline calls did not reproduce core::fis_one::run");
    const double stages = pp.graph_ms + pp.train_ms + pp.embed_ms + pp.upgma_ms + pp.index_ms;
    std::fprintf(stderr, "  core.run_ms %.3f; stage sum %.3f (%.1f%% of run)\n", pp.run_ms,
                 stages, 100.0 * stages / pp.run_ms);
    m.add("core.run_ms", pp.run_ms, "ms");
    m.add("graph.build_ms", pp.graph_ms, "ms");
    m.add("gnn.train_ms", pp.train_ms, "ms");
    m.add("gnn.embed_ms", pp.embed_ms, "ms");
    m.add("gnn.share", (pp.train_ms + pp.embed_ms) / pp.run_ms, "ratio");
    m.add("cluster.upgma_ms", pp.upgma_ms, "ms");
    m.add("indexing.index_ms", pp.index_ms, "ms");
    m.add("linalg.matmul_gflops", probe_matmul_gflops(), "GFLOP/s");

    const service_probe sp = probe_service(sample, indices);
    m.add("service.buildings_per_s", sp.buildings_per_s, "1/s");
    m.add("service.queue_wait_ms", sp.queue_wait_ms, "ms");

    const api_probe ap = probe_api(buildings_[1].base, 1);
    m.add("api.hit_us", ap.hit_us, "us");
    m.add("api.codec_us", ap.codec_us, "us");
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const phase& p : phases_) {
        hits += p.cache_hits;
        lookups += p.cache_hits + p.cache_misses;
    }
    m.add("api.cache_hit_ratio",
          lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0, "ratio");

    const federation_probe fp = probe_federation(
        store_, {names_[1], names_[0], names_[2], names_[3], names_[4]});
    m.add("federation.hit_us", fp.hit_us, "us");
    m.add("federation.resident_load_ms", fp.resident_load_ms, "ms");

    m.add("net.overhead_us", tcp_hit_us_ - fp.hit_us, "us");
    m.add("net.throughput_per_s", untraced.throughput(), "1/s");
    m.add("net.latency_median_ms", median(untraced_latency_ms), "ms");
    add_tail(m, "net.latency_tail", t.latency_ms, "ms");
    std::uint64_t shed = 0;
    for (const phase& p : phases_) shed += p.shed;
    m.add("net.shed", static_cast<double>(shed), "count");

    m.add("data.mount_ms", mount_ms_, "ms");
    m.add("data.effective_scan_ms", probe_effective_scan_ms(store_), "ms");

    std::vector<data::building> probe_records;
    for (std::size_t k = 0; k < k_probe_appends; ++k)
        probe_records.push_back(delta_record(buildings_[0], k * k_scans_per_append,
                                             k_scans_per_append));
    m.add("ingest.append_ms", probe_append_ms(store_, dir_, probe_records), "ms");
    double dirty = 0.0;
    std::size_t acked = 0;
    for (const append_record& a : appends_)
        if (a.ok) {
            dirty += static_cast<double>(a.dirty);
            ++acked;
        }
    m.add("ingest.dirty_per_append", acked > 0 ? dirty / static_cast<double>(acked) : 0.0,
          "count");
    m.add("ingest.reindex_ms", median(t.reindex_ms), "ms");
    // Per layer, not end to end: both wait on the one ingest thread's store
    // scan, whose speed depended on which CPU it ran on for the whole run
    // (two modes 40% apart), so their spread over ten runs reached the
    // largest bound an end-to-end metric may have.
    m.add("ingest.append_ack_ms", median(t.ack_ms), "ms");
    m.add("ingest.freshness_s", median(t.fresh_s), "s");
    add_tail(m, "ingest.append_ack_tail", t.ack_ms, "ms");
    add_tail(m, "ingest.freshness_tail", t.fresh_s, "s");
    m.add("ingest.stale_reads", static_cast<double>(stale_reads_), "count");

    const double untraced_rate = untraced.throughput();
    const double traced_rate = traced.throughput();
    m.add("obs.trace_overhead", traced_rate > 0.0 ? untraced_rate / traced_rate - 1.0 : 0.0,
          "ratio");

    for (const metric& x : m.items())
        std::fprintf(stderr, "  %-32s %14.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
}

}  // namespace

bool known_workload(const std::string& name) {
    for (const workload_spec& s : k_specs)
        if (name == s.name) return true;
    return false;
}

run_result run_workload(const run_config& cfg) {
    workload_run w(spec_of(cfg.workload), cfg);
    return w.run();
}

}  // namespace perfbench
