#include "layers.hpp"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/codec.hpp"
#include "api/server.hpp"
#include "cluster/hierarchical.hpp"
#include "core/fis_one.hpp"
#include "data/corpus_store.hpp"
#include "federation/federated_server.hpp"
#include "gnn/rf_gnn.hpp"
#include "graph/bipartite_graph.hpp"
#include "harness.hpp"
#include "indexing/cluster_indexer.hpp"
#include "indexing/similarity.hpp"
#include "ingest/append.hpp"
#include "linalg/matrix.hpp"
#include "obs/trace.hpp"
#include "runtime/task_executor.hpp"
#include "service/floor_service.hpp"
#include "service/profiles.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t k_hit_reps = 2000;

/// Where the effective-scan probe leaves its hashes, so they stay computed.
std::atomic<std::uint64_t> g_hash_sink{0};

double ms_since(clk::time_point t) { return seconds_since(t) * 1e3; }

/// Spin until \p counter exceeds \p seen (cache hits answer within
/// microseconds, so sleeping would measure the scheduler instead).
void await_frame(const std::atomic<std::size_t>& counter, std::size_t seen) {
    while (counter.load(std::memory_order_acquire) <= seen) std::this_thread::yield();
}

}  // namespace

pipeline_probe probe_pipeline(const std::vector<data::building>& buildings,
                              const std::vector<std::size_t>& indices) {
    pipeline_probe p;
    std::size_t runs = 0;
    for (std::size_t j = 0; j < buildings.size(); ++j) {
        const data::building& b = buildings[j];
        const core::fis_one_config cfg = runtime::effective_task_config(
            served_pipeline(), k_campaign_seed, indices[j], true);
        core::fis_one_result whole;
        const auto run_whole = [&] {
            const clk::time_point t = clk::now();
            whole = core::fis_one(cfg).run(b);
            p.run_ms += ms_since(t);
        };
        // The same stages, called one by one as `fis_one::run` calls them
        // for the bottom-floor protocol with hierarchical clustering.
        const auto run_staged = [&] {
            util::rng gen(cfg.seed ^ 0xf15f0e1ULL);
            clk::time_point t = clk::now();
            const graph::bipartite_graph g = graph::bipartite_graph::from_building(b);
            p.graph_ms += ms_since(t);
            t = clk::now();
            gnn::rf_gnn model(g, cfg.gnn, nullptr);
            model.train();
            p.train_ms += ms_since(t);
            t = clk::now();
            const linalg::matrix emb = model.embed_samples();
            p.embed_ms += ms_since(t);
            t = clk::now();
            const std::vector<int> assignment = cluster::upgma_cluster(emb, b.num_floors, nullptr);
            p.upgma_ms += ms_since(t);
            t = clk::now();
            const auto profiles = indexing::build_profiles(b, assignment, b.num_floors);
            const linalg::matrix sim =
                indexing::similarity_matrix(profiles, cfg.similarity, nullptr);
            const indexing::indexing_result idx = indexing::index_from_bottom(
                sim, static_cast<std::size_t>(assignment[b.labeled_sample]), cfg.solver, gen);
            p.index_ms += ms_since(t);
            if (idx.cluster_to_floor != whole.cluster_to_floor || assignment != whole.assignment)
                p.replica_matches = false;
        };
        // Whole, staged, staged, whole: each side runs first and last once,
        // so slow drift of the machine falls on both equally.
        run_whole();
        run_staged();
        run_staged();
        run_whole();
        runs += 2;
    }
    const auto n = static_cast<double>(runs);
    p.run_ms /= n;
    p.graph_ms /= n;
    p.train_ms /= n;
    p.embed_ms /= n;
    p.upgma_ms /= n;
    p.index_ms /= n;
    return p;
}

double probe_matmul_gflops() {
    // One RF-GNN hop of the served profile on a 1024-row layer: forward
    // [self | agg] (1024 x 2d) times W (2d x d), and the two backward
    // products, with d = 16.
    constexpr std::size_t m = 1024;
    const std::size_t d = served_pipeline().gnn.embedding_dim;
    util::rng gen(42);
    linalg::matrix cat(m, 2 * d), w(2 * d, d), dz(m, d), out;
    for (linalg::matrix* x : {&cat, &w, &dz})
        for (double& v : x->flat()) v = gen.uniform(-1.0, 1.0);
    const double flops_per_call = 2.0 * static_cast<double>(m * 2 * d * d);
    std::size_t calls = 0;
    const clk::time_point t0 = clk::now();
    while (seconds_since(t0) < 0.3) {
        for (int k = 0; k < 20; ++k) {
            linalg::matmul_into(out, cat, w);
            linalg::matmul_nt_into(out, dz, w);
            linalg::matmul_tn_into(out, cat, dz);
            calls += 3;
        }
    }
    return flops_per_call * static_cast<double>(calls) / seconds_since(t0) / 1e9;
}

service_probe probe_service(const std::vector<data::building>& buildings,
                            const std::vector<std::size_t>& indices) {
    service::floor_service svc(service::quick_profile(k_campaign_seed, 2));
    std::mutex m;
    std::vector<double> waits;
    std::vector<clk::time_point> submitted(buildings.size());
    const clk::time_point t0 = clk::now();
    for (std::size_t j = 0; j < buildings.size(); ++j) {
        submitted[j] = clk::now();
        static_cast<void>(svc.submit(buildings[j], indices[j],
                                     [&, j](const runtime::building_report& r) {
                                         const double total = seconds_since(submitted[j]);
                                         const std::lock_guard<std::mutex> lock(m);
                                         waits.push_back((total - r.seconds) * 1e3);
                                     }));
    }
    svc.wait_all();
    service_probe p;
    p.buildings_per_s = static_cast<double>(buildings.size()) / seconds_since(t0);
    const std::lock_guard<std::mutex> lock(m);
    p.queue_wait_ms = median(waits);
    return p;
}

api_probe probe_api(const data::building& b, std::size_t index) {
    api::server_config sc;
    sc.service = service::quick_profile(k_campaign_seed, 1);
    api::server srv(sc);
    std::atomic<std::size_t> frames{0};
    std::string last;
    api::server::session s = srv.open([&](std::string_view f) {
        last.assign(f);
        frames.fetch_add(1, std::memory_order_release);
    });
    api::identify_building_request req;
    req.has_index = true;
    req.corpus_index = index;
    req.b = b;
    req.correlation_id = 1;
    s.handle(req);  // the miss: runs the pipeline and fills the cache
    s.finish();

    api_probe p;
    const clk::time_point t0 = clk::now();
    for (std::size_t k = 0; k < k_hit_reps; ++k) {
        const std::size_t seen = frames.load(std::memory_order_acquire);
        req.correlation_id = k + 2;
        s.handle(req);
        await_frame(frames, seen);
    }
    p.hit_us = seconds_since(t0) * 1e6 / static_cast<double>(k_hit_reps);
    s.finish();

    // One wire round of a warm read: request out, response back.
    api::identify_resident_request rr;
    rr.correlation_id = 1;
    rr.name = b.name;
    const api::decode_result<api::response> decoded = api::decode_response(last);
    if (!decoded.ok()) throw std::runtime_error("probe_api: undecodable cached response");
    const api::response resp = *decoded.value;
    std::size_t sink = 0;
    const clk::time_point t1 = clk::now();
    for (std::size_t k = 0; k < k_hit_reps; ++k) {
        const std::string q = api::encode(api::request(rr));
        sink += api::decode_request(q).ok() ? 1 : 0;
        const std::string a = api::encode(resp);
        sink += api::decode_response(a).ok() ? 1 : 0;
    }
    p.codec_us = seconds_since(t1) * 1e6 / static_cast<double>(k_hit_reps);
    if (sink != 2 * k_hit_reps) throw std::runtime_error("probe_api: codec round failed");
    return p;
}

federation_probe probe_federation(const std::string& store_dir,
                                  const std::vector<std::string>& names) {
    federation::federation_config cfg;
    cfg.service = service::quick_profile(k_campaign_seed, 1);
    cfg.num_backends = 2;
    cfg.store_dirs = {store_dir};
    federation::federated_server srv(cfg);
    std::atomic<std::size_t> frames{0};
    federation::federated_server::session s = srv.open(
        [&](std::string_view) { frames.fetch_add(1, std::memory_order_release); });

    // First resolution of each name, timed by the span the federation
    // layer already records around it.
    obs::reset();
    obs::set_tracing_enabled(true);
    for (std::size_t i = 0; i < names.size(); ++i) {
        api::identify_resident_request req;
        req.correlation_id = i + 1;
        req.name = names[i];
        s.handle(req);
    }
    s.finish();
    obs::set_tracing_enabled(false);
    federation_probe p;
    for (const obs::stage_snapshot& st : obs::stage_stats())
        if (st.stage == "federation.resident_load" && st.count > 0)
            p.resident_load_ms = st.total_seconds * 1e3 / static_cast<double>(st.count);
    obs::reset();

    std::vector<double> us;
    us.reserve(k_hit_reps);
    api::identify_resident_request req;
    req.name = names.front();
    for (std::size_t k = 0; k < k_hit_reps; ++k) {
        const std::size_t seen = frames.load(std::memory_order_acquire);
        req.correlation_id = names.size() + 1 + k;
        const clk::time_point t = clk::now();
        s.handle(req);
        await_frame(frames, seen);
        us.push_back(seconds_since(t) * 1e6);
    }
    s.finish();
    p.hit_us = median(us);
    return p;
}

double probe_tcp_hit_us(std::uint16_t port, const std::string& name) {
    wire_client client(port);
    api::identify_resident_request req;
    req.name = name;
    static_cast<void>(client.call(req));  // fills the cache when the workload did not
    std::vector<double> us;
    us.reserve(k_hit_reps);
    for (std::size_t k = 0; k < k_hit_reps; ++k) {
        const clk::time_point t = clk::now();
        static_cast<void>(client.call(req));
        us.push_back(seconds_since(t) * 1e6);
    }
    return median(us);
}

double probe_effective_scan_ms(const std::string& store_dir) {
    std::vector<double> v;
    for (int rep = 0; rep < 3; ++rep) {
        const clk::time_point t = clk::now();
        std::uint64_t mix = 0;
        data::corpus_store::open(store_dir).for_each_building_effective(
            [&](std::size_t, data::building&& b) { mix ^= data::content_hash(b); });
        v.push_back(ms_since(t));
        g_hash_sink.store(mix, std::memory_order_relaxed);
    }
    return median(v);
}

double probe_append_ms(const std::string& store_dir, const std::string& scratch_dir,
                       const std::vector<data::building>& records) {
    const std::filesystem::path copy = std::filesystem::path(scratch_dir) / "append-probe";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(store_dir, copy, std::filesystem::copy_options::recursive);
    std::vector<double> v;
    for (const data::building& r : records) {
        const clk::time_point t = clk::now();
        static_cast<void>(ingest::append_scans(copy.string(), {r}));
        v.push_back(ms_since(t));
    }
    std::filesystem::remove_all(copy);
    return median(v);
}

}  // namespace perfbench
