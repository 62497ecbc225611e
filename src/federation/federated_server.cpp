#include "federated_server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "api/codec.hpp"
#include "ingest/ingest_manager.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "watch_registry.hpp"

namespace fisone::federation {

namespace {

/// Stable affinity identity of a shard request: a canonical hash of its
/// path, so resubmitting the same shard lands on the same backend.
std::uint64_t shard_affinity(const service::shard_ref& ref) noexcept {
    util::fnv1a64 h;
    h.str(ref.path);
    return h.digest();
}

/// Snapshot every backend and merge — the one implementation behind both
/// `get_stats` requests and `federated_server::stats()`.
service::service_stats gather_merged_stats(const std::vector<api::server*>& backends) {
    std::vector<service::service_stats> stats;
    std::vector<obs::latency_histogram> latencies;
    stats.reserve(backends.size());
    latencies.reserve(backends.size());
    for (api::server* b : backends) {
        stats.push_back(b->stats());
        latencies.push_back(b->backing_service().latencies());
    }
    return merge_backend_stats(stats, latencies);
}

}  // namespace

service::service_stats merge_backend_stats(
    const std::vector<service::service_stats>& stats,
    const std::vector<obs::latency_histogram>& latencies) {
    if (stats.size() != latencies.size())
        throw std::invalid_argument("merge_backend_stats: " + std::to_string(stats.size()) +
                                    " stats snapshots, " + std::to_string(latencies.size()) +
                                    " latency histograms");
    service::service_stats merged;
    obs::latency_histogram pooled;
    for (std::size_t k = 0; k < stats.size(); ++k) {
        const service::service_stats& s = stats[k];
        merged.jobs_submitted += s.jobs_submitted;
        merged.jobs_queued += s.jobs_queued;
        merged.jobs_running += s.jobs_running;
        merged.jobs_done += s.jobs_done;
        merged.jobs_cancelled += s.jobs_cancelled;
        merged.buildings_done += s.buildings_done;
        merged.buildings_ok += s.buildings_ok;
        merged.buildings_failed += s.buildings_failed;
        merged.buildings_cancelled += s.buildings_cancelled;
        merged.cache_hits += s.cache_hits;
        merged.cache_misses += s.cache_misses;
        merged.cache_evictions += s.cache_evictions;
        merged.ingest_appends += s.ingest_appends;
        merged.ingest_dirty_buildings += s.ingest_dirty_buildings;
        merged.watch_subscribers += s.watch_subscribers;
        pooled.merge(latencies[k]);
    }
    // Percentiles come from the pooled observations, never from averaging
    // the per-backend percentiles (which answers a different question).
    merged.latency_p50 = pooled.percentile_or_zero(50.0);
    merged.latency_p90 = pooled.percentile_or_zero(90.0);
    merged.latency_p99 = pooled.percentile_or_zero(99.0);
    merged.latency_count = pooled.count();
    merged.latency_sum = pooled.sum();
    merged.latency_le = pooled.le_counts();
    return merged;
}

/// Shared routing state: one cursor/counter namespace per server, shared by
/// every session (and outliving dropped handles).
struct federated_server::routing {
    routing(routing_policy policy, std::size_t num_backends) : rt(policy, num_backends) {}

    std::mutex m;  ///< guards `rt` and `next_index`
    router rt;
    /// Front-end corpus-index counter — the ONE assignment authority for
    /// auto-indexed buildings, mirroring `floor_service`'s own counter so
    /// a federated campaign assigns exactly the indices (and thus seeds) a
    /// single service would.
    std::size_t next_index = 0;

    std::size_t allocate_index() {
        const std::lock_guard<std::mutex> lock(m);
        return next_index++;
    }

    void advance_index(std::size_t end) {
        const std::lock_guard<std::mutex> lock(m);
        if (end > next_index) next_index = end;
    }

    std::size_t route(std::uint64_t affinity, const std::vector<backend_probe>& probes) {
        const std::lock_guard<std::mutex> lock(m);
        return rt.route(affinity, probes);
    }
};

/// Name → (global corpus index, building) over the mounted stores. The
/// names are indexed on the first `identify_resident`; a building's bits
/// load from its store on its first request and then stay pinned in memory
/// (resident mode's point: neither the wire nor the disk should gate the
/// pipeline). Appends keep it current: each dirty building's post-append
/// bits are staged when the ingest manager submits its re-run and committed
/// when the re-run answers, before its push goes out — so a read that
/// follows the push resolves to the post-append bits, and a read during the
/// re-run still hits the cached pre-append answer instead of running the
/// pipeline a second time. Clean buildings never change, so the mount-time
/// view serves them.
struct federated_server::resident_directory {
    struct entry {
        std::size_t store = 0;         ///< mounted store holding the name (base buildings)
        std::size_t global_index = 0;  ///< its global corpus index
        /// Its bits: null until first requested; set by `commit` (which may
        /// add a name no store held at mount — its `store` is then unused).
        std::shared_ptr<const data::building> b;
        /// The re-run that committed `b` (0 = mount-time bits). The ingest
        /// manager numbers re-runs in append order, so a late answer from
        /// an older append never overwrites a newer one.
        std::uint64_t rerun = 0;
    };

    std::mutex m;
    bool indexed = false;
    std::unordered_map<std::string, entry> index;
    /// Re-run correlation id → the post-append entry it will commit.
    std::unordered_map<std::uint64_t, std::pair<std::string, entry>> staged;

    /// The append re-run \p corr re-identifies \p b at \p global_index.
    void stage(std::uint64_t corr, std::size_t global_index, const data::building& b) {
        auto bits = std::make_shared<const data::building>(b);
        const std::lock_guard<std::mutex> lock(m);
        staged[corr] = {b.name, entry{0, global_index, std::move(bits), corr}};
    }

    /// Re-run \p corr answered (a result or a typed error): its name now
    /// resolves to the staged bits. Unknown ids are ignored.
    void commit(std::uint64_t corr) {
        const std::lock_guard<std::mutex> lock(m);
        const auto it = staged.find(corr);
        if (it == staged.end()) return;
        entry& e = index[it->second.first];
        if (e.rerun < corr) {
            e.global_index = it->second.second.global_index;
            e.b = std::move(it->second.second.b);
            e.rerun = corr;
        }
        staged.erase(it);
    }

    /// Resolve \p name to (global index, building), loading the building
    /// from its store on the first request. Serialised under the directory
    /// lock — a store scan stalls concurrent resolutions, but only the
    /// first request of each name ever scans.
    struct hit {
        std::size_t global_index = 0;
        std::shared_ptr<const data::building> b;
    };
    std::optional<hit> resolve(const store_registry& reg, const std::string& name) {
        const std::lock_guard<std::mutex> lock(m);
        if (!indexed) {
            // try_emplace: a name an append already committed keeps its
            // post-append entry.
            for (std::size_t s = 0; s < reg.num_stores(); ++s) {
                const std::size_t offset = reg.store_offset(s);
                reg.store(s).for_each_building_effective(
                    [&](std::size_t local, data::building&& b) {
                        index.try_emplace(b.name, entry{s, offset + local, nullptr, 0});
                    });
            }
            indexed = true;
        }
        const auto it = index.find(name);
        if (it == index.end()) return std::nullopt;
        entry& e = it->second;
        if (!e.b) {
            obs::scoped_span span("federation.resident_load");
            const std::size_t local = e.global_index - reg.store_offset(e.store);
            reg.store(e.store).for_each_building_effective(
                [&](std::size_t i, data::building&& b) {
                    if (i == local) e.b = std::make_shared<const data::building>(std::move(b));
                });
            if (!e.b) return std::nullopt;
        }
        return hit{e.global_index, e.b};
    }
};

// Named (not anonymous) so session::state — an external-linkage type — may
// hold it without GCC's -Wsubobject-linkage firing.
namespace detail {

/// High bit of a correlation id: set on every id the dispatch path mints
/// (attempt ids, swallow-cancel ids) and refused on client requests. The
/// bit is what lets the response channel tell backend frames it must
/// intercept from frames it streams through verbatim.
inline constexpr std::uint64_t k_attempt_bit = std::uint64_t{1} << 63;

/// One in-flight building request. Lives in the tracker map from
/// submission until its final answer (success, genuine failure, or typed
/// error) — a scheduled-but-not-yet-dispatched retry re-keys the entry
/// under a fresh attempt id, so the map is never empty while the client
/// still awaits a response (the drain barrier waits on exactly that).
struct attempt {
    std::uint64_t client_corr = 0;
    /// The pinned request (has_index = true) under the FIRST attempt's id,
    /// shared so the first dispatch forwards it without a copy; a retry
    /// forwards a copy under its own id.
    std::shared_ptr<const api::request> req;
    std::uint64_t affinity = 0;
    std::size_t backend = 0;      ///< backend of the current dispatch
    std::size_t last_failed = 0;  ///< backend the previous try failed on
    bool has_failed = false;      ///< `last_failed` is meaningful
    std::size_t tries = 0;        ///< dispatches so far
    /// Set while the final response is being delivered: competing
    /// resolution paths (a late timeout racing the answer) back off, and
    /// the drain barrier keeps waiting until delivery completes.
    bool resolving = false;
    obs::trace_context trace{};   ///< submitter's trace position (for retry spans)
};

/// Attempt bookkeeping of one session. Pure data + locks — owned by the
/// session's emitter, so interception keeps working on frames that arrive
/// after the session handle was dropped.
struct attempt_tracker {
    std::mutex m;
    std::condition_variable cv;  ///< notified whenever an attempt resolves
    std::unordered_map<std::uint64_t, attempt> attempts;  ///< by attempt id
    /// Client correlation id → current attempt id (the `cancel_job`
    /// namespace of buildings). Resubmitting under an id re-points it.
    std::unordered_map<std::uint64_t, std::uint64_t> attempt_by_client;
    /// Forwarded client cancels had their target translated to an attempt
    /// id; this maps the cancel's own correlation id back to the client's
    /// target so the response can be un-translated in place.
    std::unordered_map<std::uint64_t, std::uint64_t> cancel_rewrites;
    std::uint64_t next_id = 0;

    std::uint64_t mint() { return k_attempt_bit | next_id++; }

    /// Drop the resolved attempt \p id (and its client alias).
    void erase(std::uint64_t id) {
        const auto it = attempts.find(id);
        if (it == attempts.end()) return;
        const auto alias = attempt_by_client.find(it->second.client_corr);
        if (alias != attempt_by_client.end() && alias->second == id)
            attempt_by_client.erase(alias);
        attempts.erase(it);
    }
};

/// The response channel of one federated connection. Kept separate from the
/// session state on purpose: backend sessions hold their sink (and thus
/// this) alive while jobs are in flight, and pointing those sinks at the
/// session state instead would cycle session → backend sessions → sink →
/// session and leak all three.
struct emitter {
    federated_server::frame_sink sink;
    std::mutex m;  ///< serialises sink calls across every backend's workers
    bool broken = false;
    std::string patched;  ///< reused buffer for id-patched frames (guarded by m)
    attempt_tracker tracker;
    /// Shared with the server: frames that arrive after the session handle
    /// died still feed the breakers.
    std::shared_ptr<fleet_health> health;

    /// Hand one frame to the sink. A sink that throws marks the transport
    /// broken; later frames are dropped silently.
    void deliver(std::string_view f) {
        const std::lock_guard<std::mutex> lock(m);
        if (broken) return;
        try {
            sink(f);
        } catch (...) {
            broken = true;
        }
    }

    /// Deliver \p f with the u64 at \p off replaced by \p v.
    void deliver_patched(std::string_view f, std::size_t off, std::uint64_t v) {
        const std::lock_guard<std::mutex> lock(m);
        if (broken) return;
        try {
            patched.assign(f);
            api::patch_frame_u64(patched, off, v);
            sink(patched);
        } catch (...) {
            broken = true;
        }
    }

    /// Encode and forward one front-end-authored response (never
    /// intercepted: these already carry the client's correlation id).
    void respond(const api::response& resp) { deliver(api::encode(resp)); }
};

}  // namespace detail

/// Per-connection state: one backend session per backend (a correlation-id
/// namespace spanning the fleet) plus the owner map shard cancels route by.
struct federated_server::session::state {
    /// The response channel, which also owns the attempt tracker and
    /// shares the fleet's health.
    std::shared_ptr<detail::emitter> out;
    std::shared_ptr<federated_server::routing> routing;
    store_registry* registry = nullptr;
    std::vector<api::server*> backends;
    std::vector<api::server::session> backend_sessions;
    /// Live ingestion: the append engine (null when the fleet has no
    /// stores — and always null on the manager's own internal session, or
    /// manager → session → manager would cycle) and the fleet-wide watch
    /// registry.
    std::shared_ptr<ingest::ingest_manager> ingest;
    std::shared_ptr<watch_registry> watches;
    std::shared_ptr<federated_server::resident_directory> residents;

    std::mutex owners_m;
    /// Which backend owns each submitted shard's correlation id (the
    /// `cancel_job` namespace of shards; buildings route cancels through
    /// the attempt tracker). Resubmitting under an id re-points it, exactly
    /// as `api::server` re-points its cancellable target. Cleared at
    /// `flush` (everything is finished then, so cancels answer false
    /// either way).
    std::unordered_map<std::uint64_t, std::size_t> owners;

    [[nodiscard]] fleet_health& health() const { return *out->health; }
    [[nodiscard]] detail::attempt_tracker& tracker() const { return out->tracker; }

    /// Probe every backend's load and breaker state for the router.
    [[nodiscard]] std::vector<backend_probe> probe() const {
        const std::vector<bool> broken = health().unavailable_mask();
        std::vector<backend_probe> probes(backends.size());
        for (std::size_t k = 0; k < backends.size(); ++k) {
            const service::floor_service& svc = backends[k]->backing_service();
            probes[k] = backend_probe{svc.pending_jobs(), svc.paused(), broken[k]};
        }
        return probes;
    }

    /// Route under the `federation.route` span.
    [[nodiscard]] std::size_t route(std::uint64_t affinity,
                                    const std::vector<backend_probe>& probes) const {
        obs::scoped_span span("federation.route");
        return routing->route(affinity, probes);
    }

    void remember(std::uint64_t correlation_id, std::size_t backend_index) {
        const std::lock_guard<std::mutex> lock(owners_m);
        owners[correlation_id] = backend_index;
    }

    /// Drain barrier: the ingest manager idle (appends queued before the
    /// barrier durable, their dirty re-runs answered), every backend
    /// finished, AND every attempt resolved. Ingest first — its re-runs
    /// create the backend work the rest of the barrier waits on. Loops
    /// because a scheduled retry may submit new backend work after a round
    /// of finishes.
    void drain() {
        if (ingest) ingest->wait_idle();
        detail::attempt_tracker& tr = tracker();
        for (;;) {
            for (api::server::session& bs : backend_sessions) bs.finish();
            std::unique_lock<std::mutex> lock(tr.m);
            if (tr.attempts.empty()) return;
            tr.cv.wait_for(lock, std::chrono::milliseconds(20));
        }
    }
};

// --- dispatch ---------------------------------------------------------------

void federated_server::submit_building(const std::shared_ptr<session::state>& st,
                                       api::identify_building_request&& req) {
    obs::scoped_span span("federation.dispatch");
    // Pin the index up front: the front-end is the one index-assignment
    // authority (so the backend, and its cache key, sees the identity a
    // single service would assign), and the identity must survive failover
    // — every retry reruns the SAME task.
    if (req.has_index)
        st->routing->advance_index(static_cast<std::size_t>(req.corpus_index) + 1);
    else
        req.corpus_index = st->routing->allocate_index();
    req.has_index = true;
    // Affinity reads the building's content hash only when the policy
    // routes on it (the hash walks every sample).
    const std::uint64_t affinity =
        st->routing->rt.policy() == routing_policy::content_hash_affinity
            ? data::content_hash(req.b)
            : 0;
    detail::attempt_tracker& tr = st->tracker();
    const std::uint64_t client = req.correlation_id;
    std::uint64_t id = 0;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        id = tr.mint();
        req.correlation_id = id;
        detail::attempt a;
        a.client_corr = client;
        a.req = std::make_shared<const api::request>(std::move(req));
        a.affinity = affinity;
        a.trace = obs::current_context();
        tr.attempts.emplace(id, std::move(a));
        tr.attempt_by_client[client] = id;
    }
    dispatch_attempt(st, id);
}

/// (Re)dispatch attempt \p attempt_id: route it (avoiding the backend it
/// last failed on and every circuit-broken backend — though when nothing
/// is available the natural choice still gets the work, so a
/// single-backend fleet keeps retrying toward exhaustion rather than
/// failing early), forward it under its attempt id, arm its deadline.
/// Runs on the submitting thread for the first try and on the fleet_health
/// watchdog for retries — never inside a completion callback.
void federated_server::dispatch_attempt(const std::shared_ptr<session::state>& st,
                                        std::uint64_t attempt_id) {
    detail::attempt_tracker& tr = st->tracker();
    fleet_health& health = st->health();

    std::shared_ptr<const api::request> req;
    std::uint64_t affinity = 0;
    std::size_t last_failed = 0;
    bool has_failed = false;
    std::size_t tries = 0;
    obs::trace_context trace;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end()) return;  // resolved while queued
        detail::attempt& a = it->second;
        tries = ++a.tries;
        req = a.req;
        affinity = a.affinity;
        last_failed = a.last_failed;
        has_failed = a.has_failed;
        trace = a.trace;
    }
    // Retries run on the watchdog: keep their spans in the request's tree.
    obs::context_guard trace_guard(trace);

    std::vector<backend_probe> probes = st->probe();
    if (has_failed && last_failed < probes.size()) probes[last_failed].broken = true;
    const std::size_t k = st->route(affinity, probes);
    if (tries > 1) {
        health.count_retry();
        const std::uint64_t now = obs::now_ns();
        obs::emit_child_span("federation.retry", trace, now, now);
        if (has_failed && k != last_failed) {
            health.count_failover();
            obs::emit_child_span("federation.failover", trace, now, now);
        }
    }
    health.note_routed(k);
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end()) return;
        it->second.backend = k;
    }

    try {
        if (api::correlation_id(*req) == attempt_id) {
            st->backend_sessions[k].handle(*req);
        } else {
            api::request retry = *req;
            api::set_correlation_id(retry, attempt_id);
            st->backend_sessions[k].handle(retry);
        }
    } catch (const std::exception& e) {
        // Submit-time crash: no backend job exists, no response will come.
        health.on_failure(k);
        retry_or_fail(st, attempt_id, k, api::error_code::backend_unavailable,
                      std::string("backend crashed on submit: ") + e.what());
        return;
    }
    if (health.config().request_timeout.count() > 0) {
        std::weak_ptr<session::state> w = st;
        health.schedule(fleet_health::clock::now() + health.config().request_timeout,
                        [w, attempt_id] {
                            if (const std::shared_ptr<session::state> s = w.lock())
                                expire_attempt(s, attempt_id);
                        });
    }
}

/// Resolve a failed try of \p attempt_id: either re-key it under a fresh
/// attempt id and schedule the backoff retry, or — attempts exhausted —
/// answer the client with the typed error \p code.
void federated_server::retry_or_fail(const std::shared_ptr<session::state>& st,
                                     std::uint64_t attempt_id, std::size_t failed_backend,
                                     api::error_code code, const std::string& message) {
    detail::attempt_tracker& tr = st->tracker();
    fleet_health& health = st->health();

    std::uint64_t client = 0;
    std::uint64_t new_id = 0;
    bool exhausted = false;
    std::size_t tries = 0;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end() || it->second.resolving) return;  // already resolved
        tries = it->second.tries;
        client = it->second.client_corr;
        if (tries >= health.config().max_attempts) {
            exhausted = true;
            it->second.resolving = true;  // claimed: the error below is final
        } else {
            // Re-key now (not at dispatch time): the map must stay
            // non-empty while the client awaits an answer, or the drain
            // barrier would return with a retry still scheduled. A late
            // frame for the old id finds nothing and is dropped as stale.
            detail::attempt a = std::move(it->second);
            tr.attempts.erase(it);
            a.last_failed = failed_backend;
            a.has_failed = true;
            new_id = tr.mint();
            const auto alias = tr.attempt_by_client.find(a.client_corr);
            if (alias != tr.attempt_by_client.end() && alias->second == attempt_id)
                alias->second = new_id;
            tr.attempts.emplace(new_id, std::move(a));
        }
    }
    if (exhausted) {
        if (code == api::error_code::deadline_exceeded)
            health.count_deadline_exceeded();
        else
            health.count_backend_unavailable();
        st->out->respond(api::error_response{
            client, code, message + " (after " + std::to_string(tries) + " attempts)"});
        {
            const std::lock_guard<std::mutex> lock(tr.m);
            tr.erase(attempt_id);
        }
        tr.cv.notify_all();
        return;
    }
    std::weak_ptr<session::state> w = st;
    health.schedule_after(health.backoff(tries), [w, new_id] {
        if (const std::shared_ptr<session::state> s = w.lock()) dispatch_attempt(s, new_id);
    });
}

/// Deadline expiry of \p attempt_id (watchdog timer). Claims the attempt
/// first, then cancels the straggler job — in that order, so the job's
/// "cancelled" report arrives under an id no longer tracked and is
/// stale-dropped instead of reaching the client as a cancelled result.
void federated_server::expire_attempt(const std::shared_ptr<session::state>& st,
                                      std::uint64_t attempt_id) {
    detail::attempt_tracker& tr = st->tracker();
    std::size_t backend = 0;
    std::uint64_t swallow = 0;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(attempt_id);
        if (it == tr.attempts.end() || it->second.resolving) return;  // answered in time
        if (it->second.tries == 0) return;  // not yet dispatched (paranoia)
        backend = it->second.backend;
        swallow = tr.mint();  // never registered: its cancel ack is dropped
    }
    st->health().on_failure(backend);
    retry_or_fail(st, attempt_id, backend, api::error_code::deadline_exceeded,
                  "deadline exceeded after " +
                      std::to_string(st->health().config().request_timeout.count()) + " ms");
    // Cancel the hung job so its worker stops burning the deadline's
    // budget; the swallow id keeps the ack out of the client stream.
    st->backend_sessions[backend].handle(
        api::request{api::cancel_job_request{swallow, attempt_id}});
}

void federated_server::on_backend_frame(detail::emitter& out,
                                        const std::weak_ptr<session::state>& session,
                                        std::string_view f) {
    if (f.size() < api::k_off_corr + 8) {  // unaddressable: pass through
        out.deliver(f);
        return;
    }
    detail::attempt_tracker& tr = out.tracker;
    const std::uint16_t tag = api::frame_u16(f, api::k_off_tag);
    const std::uint64_t corr = api::frame_u64(f, api::k_off_corr);
    if (!(corr & detail::k_attempt_bit)) {
        // Client-correlated. Only forwarded building cancels need work:
        // un-translate the response's target from attempt id back to the
        // client's target id, in place.
        if (tag == static_cast<std::uint16_t>(api::message_tag::cancel_result) &&
            f.size() >= api::k_off_cancel_target + 8) {
            std::uint64_t client_target = 0;
            bool rewrite = false;
            {
                const std::lock_guard<std::mutex> lock(tr.m);
                const auto it = tr.cancel_rewrites.find(corr);
                if (it != tr.cancel_rewrites.end()) {
                    client_target = it->second;
                    rewrite = true;
                    tr.cancel_rewrites.erase(it);
                }
            }
            if (rewrite) {
                out.deliver_patched(f, api::k_off_cancel_target, client_target);
                return;
            }
        }
        out.deliver(f);
        return;
    }
    // Attempt-correlated: ours. Anything that is not a tracked building
    // result or error — swallow-cancel acks, frames from attempts already
    // resolved or re-keyed (a timed-out try answering late) — is dropped:
    // the client either already has its answer or will get it from the
    // retry in flight.
    const bool is_result = tag == static_cast<std::uint16_t>(api::message_tag::building_result);
    if (!is_result && tag != static_cast<std::uint16_t>(api::message_tag::error)) return;
    bool transient = false;
    if (is_result) {
        const std::optional<api::report_status> status = api::peek_report_status(f);
        transient = status && !status->ok && service::is_transient_fault(status->error);
    }
    std::size_t backend = 0;
    std::uint64_t client = 0;
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        const auto it = tr.attempts.find(corr);
        if (it == tr.attempts.end() || it->second.resolving) return;
        backend = it->second.backend;
        client = it->second.client_corr;
        if (!transient) it->second.resolving = true;  // claim: delivery is final
    }
    if (!transient) {
        // Success — or a genuine, deterministic failure the retry layer
        // must NOT rerun. Patch the correlation id back to the client's;
        // every other byte is the backend's.
        out.health->on_success(backend);
        out.deliver_patched(f, api::k_off_corr, client);
        {
            const std::lock_guard<std::mutex> lock(tr.m);
            tr.erase(corr);
        }
        tr.cv.notify_all();
        return;
    }
    out.health->on_failure(backend);
    if (const std::shared_ptr<session::state> s = session.lock()) {
        retry_or_fail(s, corr, backend, api::error_code::backend_unavailable,
                      "backend kept failing transiently");
        return;
    }
    // Session gone: nothing can re-dispatch — fail it now so the tracker
    // drains.
    {
        const std::lock_guard<std::mutex> lock(tr.m);
        tr.erase(corr);
    }
    out.health->count_backend_unavailable();
    out.respond(api::error_response{client, api::error_code::backend_unavailable,
                                    "backend failed and the session is gone"});
    tr.cv.notify_all();
}

void federated_server::session::handle(const api::request& req) { handle(api::request(req)); }

void federated_server::session::handle(api::request&& req) {
    const std::shared_ptr<state> st = state_;
    const std::uint64_t corr = api::correlation_id(req);
    if (corr & detail::k_attempt_bit) {
        st->out->respond(api::error_response{
            corr, api::error_code::bad_request,
            "correlation ids with the top bit set are reserved for dispatch attempts"});
        return;
    }
    std::visit(
        [&](auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, api::identify_building_request>) {
                submit_building(st, std::move(m));
            } else if constexpr (std::is_same_v<T, api::identify_shard_request>) {
                obs::scoped_span span("federation.dispatch");
                // Per-store confinement: only paths inside a mounted store
                // are servable — an empty registry serves nothing.
                if (!st->registry->shard_allowed(m.ref.path)) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        st->registry->num_stores() == 0
                            ? "no corpus stores mounted: " + m.ref.path
                            : "shard path outside every mounted store: " + m.ref.path});
                    return;
                }
                st->routing->advance_index(m.ref.first_index + m.ref.num_buildings);
                // Shards fail over only on submit-time crashes: once a
                // backend accepts the stream it may have emitted frames,
                // and resubmission would duplicate them. The loop is
                // synchronous (submission is cheap — it only enqueues),
                // rerouting around each crashed backend.
                fleet_health& health = st->health();
                std::vector<backend_probe> probes = st->probe();
                const std::size_t max_tries =
                    std::min(health.config().max_attempts, probes.size());
                std::size_t prev = probes.size();
                for (std::size_t t = 0; t < max_tries; ++t) {
                    const std::size_t k = st->route(shard_affinity(m.ref), probes);
                    if (t > 0) {
                        health.count_retry();
                        if (k != prev) health.count_failover();
                    }
                    try {
                        st->backend_sessions[k].handle(req);
                        st->remember(m.correlation_id, k);
                        health.on_success(k);
                        return;
                    } catch (const std::exception&) {
                        health.on_failure(k);
                        probes[k].broken = true;  // reroute away from it
                        prev = k;
                    }
                }
                health.count_backend_unavailable();
                st->out->respond(api::error_response{
                    m.correlation_id, api::error_code::backend_unavailable,
                    "every backend crashed on shard submit: " + m.ref.path});
            } else if constexpr (std::is_same_v<T, api::get_stats_request>) {
                service::service_stats s = gather_merged_stats(st->backends);
                if (st->ingest) {
                    s.ingest_appends = static_cast<std::size_t>(st->ingest->appends_total());
                    s.ingest_dirty_buildings =
                        static_cast<std::size_t>(st->ingest->dirty_total());
                }
                if (st->watches) s.watch_subscribers = st->watches->live_count();
                st->out->respond(api::stats_response{m.correlation_id, std::move(s)});
            } else if constexpr (std::is_same_v<T, api::append_scans_request>) {
                obs::scoped_span span("federation.dispatch");
                if (!st->ingest) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        "append_scans needs a store-backed fleet (no corpus stores "
                        "mounted at construction)"});
                    return;
                }
                // Ack from the ingest worker, after the manifest durably
                // versioned forward (or the batch was refused). The emitter
                // is captured shared: the ack must deliver even if this
                // session handle is dropped meanwhile.
                const std::uint64_t ack_corr = m.correlation_id;
                const std::shared_ptr<detail::emitter> out = st->out;
                st->ingest->enqueue_append(
                    std::move(m.corpus_name), std::move(m.records),
                    [out, ack_corr](const ingest::append_ack& ack) {
                        if (ack.error.empty())
                            out->respond(api::append_response{ack_corr, ack.version,
                                                              ack.accepted, ack.dirty});
                        else
                            out->respond(api::error_response{
                                ack_corr, api::error_code::bad_request, ack.error});
                    });
            } else if constexpr (std::is_same_v<T, api::watch_request>) {
                // One subscription per (building, connection); the emitter
                // pointer is the connection's identity. Entries hold the
                // emitter weakly — closing the connection unsubscribes by
                // expiry.
                const auto token =
                    static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(st->out.get()));
                bool active = false;
                if (m.subscribe) {
                    std::weak_ptr<detail::emitter> w = st->out;
                    st->watches->subscribe(m.name, token, m.correlation_id,
                                           std::weak_ptr<void>(st->out),
                                           [w](const api::response& resp) {
                                               if (const auto out_ = w.lock())
                                                   out_->respond(resp);
                                           });
                    active = true;
                } else {
                    st->watches->unsubscribe(m.name, token);
                }
                st->out->respond(api::watch_ack_response{m.correlation_id, active});
            } else if constexpr (std::is_same_v<T, api::identify_resident_request>) {
                // Resolve the name against the mounted stores, then dispatch
                // as a pinned identify_building: resident requests ride the
                // exact routing/protection path client-supplied buildings do.
                if (st->registry->num_stores() == 0) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        "identify_resident: no corpus stores mounted"});
                    return;
                }
                const auto hit = st->residents->resolve(*st->registry, m.name);
                if (!hit) {
                    st->out->respond(api::error_response{
                        m.correlation_id, api::error_code::bad_request,
                        "identify_resident: no mounted store holds a building named '" +
                            m.name + "'"});
                    return;
                }
                api::identify_building_request fwd;
                fwd.correlation_id = m.correlation_id;
                fwd.has_index = true;
                fwd.corpus_index = hit->global_index;
                fwd.no_cache = m.fresh;
                fwd.b = *hit->b;
                submit_building(st, std::move(fwd));
            } else if constexpr (std::is_same_v<T, api::subscribe_stats_request>) {
                st->out->respond(api::error_response{
                    m.correlation_id, api::error_code::bad_request,
                    "subscribe_stats: telemetry windows live at the TCP front door "
                    "(connect through serve_tcp to stream stats)"});
            } else if constexpr (std::is_same_v<T, api::cancel_job_request>) {
                // Buildings live under attempt ids: translate the target for
                // the hop and record the un-translation the response's target
                // field needs on the way back.
                std::size_t backend = st->backends.size();
                std::uint64_t attempt_id = 0;
                {
                    detail::attempt_tracker& tr = st->tracker();
                    const std::lock_guard<std::mutex> lock(tr.m);
                    const auto alias = tr.attempt_by_client.find(m.target_correlation_id);
                    if (alias != tr.attempt_by_client.end()) {
                        const auto at = tr.attempts.find(alias->second);
                        if (at != tr.attempts.end() && !at->second.resolving &&
                            at->second.tries > 0) {
                            attempt_id = alias->second;
                            backend = at->second.backend;
                            tr.cancel_rewrites[m.correlation_id] = m.target_correlation_id;
                        }
                    }
                }
                if (backend < st->backends.size()) {
                    api::cancel_job_request fwd = m;
                    fwd.target_correlation_id = attempt_id;
                    st->backend_sessions[backend].handle(api::request{fwd});
                    return;
                }
                // Not a live building: a shard job, or an unknown target.
                std::size_t owner = st->backends.size();
                {
                    const std::lock_guard<std::mutex> lock(st->owners_m);
                    const auto it = st->owners.find(m.target_correlation_id);
                    if (it != st->owners.end()) owner = it->second;
                }
                if (owner < st->backends.size())
                    st->backend_sessions[owner].handle(req);  // backend answers
                else
                    st->out->respond(api::cancel_response{m.correlation_id,
                                                          m.target_correlation_id, false});
            } else {
                static_assert(std::is_same_v<T, api::flush_request>);
                // Fan-out barrier: every backend drains and every attempt
                // resolves (retries included) before the one flush_response.
                // (Flush on a paused fleet throws, exactly as
                // floor_service::wait_all refuses to deadlock.)
                st->drain();
                {
                    const std::lock_guard<std::mutex> lock(st->owners_m);
                    st->owners.clear();
                }
                st->out->respond(api::flush_response{m.correlation_id});
            }
        },
        req);
}

bool federated_server::session::handle_frame(std::string_view frame) {
    api::decode_result<api::request> decoded = api::decode_request(frame);
    if (decoded.eof) return true;
    if (decoded.error) {
        state_->out->respond(
            api::error_response{0, decoded.error->code, decoded.error->message});
        return !decoded.fatal;
    }
    handle(std::move(*decoded.value));
    return true;
}

void federated_server::session::finish() { state_->drain(); }

bool federated_server::session::sink_broken() const {
    const std::lock_guard<std::mutex> lock(state_->out->m);
    return state_->out->broken;
}

federated_server::federated_server(federation_config cfg) : cfg_(std::move(cfg)) {
    if (cfg_.num_backends == 0)
        throw std::invalid_argument("federated_server: num_backends must be >= 1");
    if (!cfg_.fault_plans.empty() && cfg_.fault_plans.size() != cfg_.num_backends)
        throw std::invalid_argument("federated_server: " +
                                    std::to_string(cfg_.fault_plans.size()) +
                                    " fault plans for " + std::to_string(cfg_.num_backends) +
                                    " backends");
    health_ = std::make_shared<fleet_health>(cfg_.fault_tolerance, cfg_.num_backends);
    routing_ = std::make_shared<routing>(cfg_.policy, cfg_.num_backends);
    for (const std::string& dir : cfg_.store_dirs) static_cast<void>(registry_.mount(dir));
    backends_.reserve(cfg_.num_backends);
    for (std::size_t k = 0; k < cfg_.num_backends; ++k) {
        api::server_config bc;
        bc.service = cfg_.service;
        if (!cfg_.fault_plans.empty()) bc.service.faults = cfg_.fault_plans[k];
        bc.enable_cache = cfg_.enable_cache;
        bc.cache_capacity = cfg_.cache_capacity;
        if (!cfg_.cache_dir.empty())
            bc.cache_spill = api::cache_spill_config{cfg_.cache_dir, cfg_.num_backends, k};
        // Backends trust their paths: the front-end already confined every
        // shard request to the mounted stores.
        bc.shard_root.clear();
        backends_.push_back(std::make_unique<api::server>(std::move(bc)));
    }
    watches_ = std::make_shared<watch_registry>();
    residents_ = std::make_shared<resident_directory>();
    if (registry_.num_stores() > 0) {
        std::vector<ingest::store_binding> bindings;
        bindings.reserve(registry_.num_stores());
        for (std::size_t s = 0; s < registry_.num_stores(); ++s) {
            ingest::store_binding b;
            b.dir = registry_.store(s).directory();
            b.corpus_name = registry_.store(s).manifest().corpus_name;
            b.base_offset = registry_.store_offset(s);
            // The store-owning backend's drills govern its ingest path:
            // store k belongs to backend k mod fleet size.
            if (!cfg_.fault_plans.empty()) b.faults = cfg_.fault_plans[s % cfg_.num_backends];
            bindings.push_back(std::move(b));
        }
        // The manager's re-runs go through an internal session, so they
        // ride the protected retry/failover/deadline path exactly as
        // client work does. Opened BEFORE `ingest_` exists, so its state's
        // `ingest` pointer stays null — the manager must not own a session
        // that owns the manager. The bridge breaks the remaining knot: the
        // session's sink needs the manager, the manager needs the session.
        auto bridge = std::make_shared<std::weak_ptr<ingest::ingest_manager>>();
        std::shared_ptr<resident_directory> residents = residents_;
        session internal = open([bridge, residents](std::string_view frame) {
            const std::shared_ptr<ingest::ingest_manager> mgr = bridge->lock();
            if (!mgr) return;
            const api::decode_result<api::response> d = api::decode_response(frame);
            if (!d.value) return;
            // Commit before the manager publishes the push: a read that
            // follows the push must resolve to the post-append bits.
            residents->commit(api::correlation_id(*d.value));
            if (const auto* br = std::get_if<api::building_response>(&*d.value))
                mgr->on_reindex_result(br->correlation_id, &br->report);
            else if (const auto* er = std::get_if<api::error_response>(&*d.value))
                mgr->on_reindex_result(er->correlation_id, nullptr);
        });
        std::shared_ptr<watch_registry> watches = watches_;
        ingest_ = std::make_shared<ingest::ingest_manager>(
            std::move(bindings),
            [internal, residents](std::uint64_t corr, std::size_t index,
                                  data::building b) mutable {
                residents->stage(corr, index, b);
                api::identify_building_request req;
                req.correlation_id = corr;
                req.has_index = true;
                req.corpus_index = index;
                req.b = std::move(b);
                internal.handle(api::request{std::move(req)});
            },
            [watches](const std::string& name, std::uint64_t version,
                      const runtime::building_report& report) {
                watches->publish(name, version, report);
            });
        *bridge = ingest_;
    }
}

federated_server::~federated_server() = default;

federated_server::session federated_server::open(frame_sink sink) {
    auto out = std::make_shared<detail::emitter>();
    out->sink = std::move(sink);
    out->health = health_;
    auto st = std::make_shared<session::state>();
    st->out = out;
    st->routing = routing_;
    st->registry = &registry_;
    st->ingest = ingest_;  // still null while the internal session opens
    st->watches = watches_;
    st->residents = residents_;
    st->backends.reserve(backends_.size());
    st->backend_sessions.reserve(backends_.size());
    // Backend sinks hold the emitter (frames that land after the handle is
    // dropped still resolve) and the state only weakly (state → backend
    // sessions → sink → state would cycle).
    const std::weak_ptr<session::state> w = st;
    for (const std::unique_ptr<api::server>& b : backends_) {
        st->backends.push_back(b.get());
        st->backend_sessions.push_back(
            b->open([out, w](std::string_view frame) { on_backend_frame(*out, w, frame); }));
    }
    return session(std::move(st));
}

void federated_server::serve(std::istream& in, std::ostream& out) {
    session s = open([&out](std::string_view frame) {
        out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
        if (!out) throw std::ios_base::failure("federated_server: response stream went bad");
        out.flush();
    });
    try {
        for (;;) {
            api::decode_result<api::request> r = api::read_request(in);
            if (r.eof) break;
            if (r.error) {
                s.state_->out->respond(
                    api::error_response{0, r.error->code, r.error->message});
                if (r.fatal) break;
                continue;
            }
            s.handle(std::move(*r.value));
            if (s.sink_broken()) break;
        }
    } catch (...) {
        // Same contract as api::server::serve: never unwind with jobs in
        // flight (their sinks write to `out`). The in-protocol throw is
        // flush-while-paused, so release every gate, drain, then rethrow.
        resume();
        s.finish();
        throw;
    }
    s.finish();
}

service::service_stats federated_server::stats() const {
    std::vector<api::server*> backends;
    backends.reserve(backends_.size());
    for (const std::unique_ptr<api::server>& b : backends_) backends.push_back(b.get());
    service::service_stats s = gather_merged_stats(backends);
    if (ingest_) {
        s.ingest_appends = static_cast<std::size_t>(ingest_->appends_total());
        s.ingest_dirty_buildings = static_cast<std::size_t>(ingest_->dirty_total());
    }
    if (watches_) s.watch_subscribers = watches_->live_count();
    return s;
}

void federated_server::pause() {
    for (const std::unique_ptr<api::server>& b : backends_) b->backing_service().pause();
}

void federated_server::resume() {
    for (const std::unique_ptr<api::server>& b : backends_) b->backing_service().resume();
}

health_snapshot federated_server::health() const { return health_->snapshot(); }

api::server& federated_server::backend(std::size_t k) {
    if (k >= backends_.size())
        throw std::out_of_range("federated_server: backend " + std::to_string(k) + " of " +
                                std::to_string(backends_.size()));
    return *backends_[k];
}

}  // namespace fisone::federation
