#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "api/codec.hpp"
#include "service/ndjson_export.hpp"
#include "service/profiles.hpp"

namespace perfbench {

core::fis_one_config served_pipeline() {
    return service::quick_profile(k_campaign_seed, 1).pipeline;
}

std::string result_line(const runtime::building_report& report) {
    service::ndjson_options opts;
    opts.include_timing = false;
    return service::to_ndjson(report, opts);
}

// --- the fleet ---------------------------------------------------------------

fleet::fleet(const std::string& store_dir, federation::routing_policy policy) {
    federation::federation_config cfg;
    cfg.service = service::quick_profile(k_campaign_seed, 1);
    cfg.num_backends = 2;
    cfg.policy = policy;
    cfg.store_dirs = {store_dir};
    server_ = std::make_unique<federation::federated_server>(cfg);
    front_ = std::make_unique<net::tcp_server>(net::make_backend(*server_));
    port_ = front_->port();
    loop_ = std::thread([this] { front_->run(); });
}

fleet::~fleet() {
    front_->drain();
    loop_.join();
    front_.reset();
    server_.reset();
}

namespace {
std::mutex g_stuck_m;
std::vector<std::thread> g_stuck;  // teardowns that overran their bound
}  // namespace

bool bounded_teardown(std::unique_ptr<fleet> f, double bound_s) {
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    std::thread t([f = std::move(f), done]() mutable {
        f.reset();
        done->set_value();
    });
    if (finished.wait_for(std::chrono::duration<double>(bound_s)) == std::future_status::ready) {
        t.join();
        return true;
    }
    const std::lock_guard<std::mutex> lock(g_stuck_m);
    g_stuck.push_back(std::move(t));
    return false;
}

bool teardown_stuck() {
    const std::lock_guard<std::mutex> lock(g_stuck_m);
    return !g_stuck.empty();
}

void exit_now(int code) {
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(code);
}

// --- clients -----------------------------------------------------------------

std::uint64_t wire_client::send(api::request req) {
    const std::uint64_t id = next_id_++;
    api::set_correlation_id(req, id);
    conn_.send(api::encode(req));
    return id;
}

api::response wire_client::next() {
    const std::optional<std::string> frame = conn_.read_frame();
    if (!frame) throw std::runtime_error("connection closed by the server");
    api::decode_result<api::response> r = api::decode_response(*frame);
    if (!r.ok()) throw std::runtime_error("undecodable response: " + r.error->message);
    return std::move(*r.value);
}

api::response wire_client::call(api::request req) {
    const std::uint64_t id = send(std::move(req));
    for (;;) {
        api::response r = next();
        if (api::correlation_id(r) == id) return r;
    }
}

namespace {

/// The report of a successful building response, or nullptr.
const runtime::building_report* ok_report(const api::response& r) {
    const auto* b = std::get_if<api::building_response>(&r);
    return b != nullptr && b->report.ok ? &b->report : nullptr;
}

api::request resident(const std::string& name, bool fresh) {
    api::identify_resident_request req;
    req.name = name;
    req.fresh = fresh;
    return req;
}

std::string describe(const api::response& r) {
    if (const auto* e = std::get_if<api::error_response>(&r))
        return std::string(api::error_code_name(e->code)) + ": " + e->message;
    if (const auto* b = std::get_if<api::building_response>(&r))
        return "building '" + b->report.name + "' failed: " + b->report.error;
    return "unexpected response tag " +
           std::to_string(static_cast<unsigned>(api::tag_of(r)));
}

}  // namespace

closed_loop_result closed_loop(std::uint16_t port, const std::vector<std::string>& names,
                               bool fresh, std::size_t conns, clk::time_point deadline,
                               const std::function<std::size_t(std::size_t)>& next_target,
                               bool keep_reports) {
    // Each connection interns its answers' result lines; they are merged
    // into one table when the loop ends.
    struct conn_state {
        std::vector<timed_read> reads;
        std::unordered_map<std::string, std::uint32_t> line_ids;
        std::vector<std::pair<std::uint32_t, runtime::building_report>> reports;
        std::string failure;
    };
    std::vector<conn_state> states(conns);
    std::vector<std::thread> threads;
    threads.reserve(conns);
    for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            conn_state& st = states[c];
            try {
                wire_client client(port);
                // Sized for a warm run up front, so the record never
                // reallocates while the server's peak RSS is measured.
                st.reads.reserve(static_cast<std::size_t>(
                    std::max(0.0, seconds_between(clk::now(), deadline)) * 5000.0));
                while (clk::now() < deadline) {
                    timed_read t;
                    t.target = static_cast<std::uint32_t>(next_target(c));
                    t.sent = clk::now();
                    const api::response r = client.call(resident(names.at(t.target), fresh));
                    t.received = clk::now();
                    if (const runtime::building_report* rep = ok_report(r)) {
                        t.ok = true;
                        const auto [it, inserted] = st.line_ids.emplace(
                            result_line(*rep), static_cast<std::uint32_t>(st.line_ids.size()));
                        t.line = it->second;
                        if (keep_reports && inserted) st.reports.emplace_back(t.target, *rep);
                    }
                    st.reads.push_back(t);
                }
            } catch (const std::exception& e) {
                st.failure = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();

    closed_loop_result out;
    std::unordered_map<std::string, std::uint32_t> merged;
    if (keep_reports) out.first_reports.resize(names.size());
    std::vector<bool> have(names.size(), false);
    for (conn_state& st : states) {
        if (!st.failure.empty())
            throw std::runtime_error("closed-loop connection failed: " + st.failure);
        std::vector<std::uint32_t> remap(st.line_ids.size());
        for (const auto& [line, id] : st.line_ids) {
            const auto [it, inserted] =
                merged.emplace(line, static_cast<std::uint32_t>(out.lines.size()));
            if (inserted) out.lines.push_back(line);
            remap[id] = it->second;
        }
        for (timed_read t : st.reads) {
            if (t.ok) t.line = remap[t.line];
            out.reads.push_back(t);
        }
        for (auto& [target, report] : st.reports)
            if (!have[target]) {
                have[target] = true;
                out.first_reports[target] = std::move(report);
            }
    }
    return out;
}

void load_residents(federation::federated_server& srv, const std::vector<std::string>& names) {
    federation::federated_server::session s = srv.open([](std::string_view) {});
    srv.pause();
    for (std::size_t i = 0; i < names.size(); ++i) {
        api::identify_resident_request req;
        req.correlation_id = 2 * i + 1;
        req.name = names[i];
        req.fresh = true;
        s.handle(req);
        api::cancel_job_request cancel;
        cancel.correlation_id = 2 * i + 2;
        cancel.target_correlation_id = req.correlation_id;
        s.handle(cancel);
    }
    srv.resume();
    s.finish();
}

std::vector<runtime::building_report> fill(std::uint16_t port,
                                           const std::vector<std::string>& names,
                                           std::size_t window) {
    wire_client client(port);
    std::vector<runtime::building_report> reports(names.size());
    std::unordered_map<std::uint64_t, std::size_t> target_of;
    std::size_t sent = 0;
    std::size_t answered = 0;
    while (answered < names.size()) {
        while (sent < names.size() && sent - answered < window) {
            target_of[client.send(resident(names[sent], false))] = sent;
            ++sent;
        }
        const api::response r = client.next();
        const auto it = target_of.find(api::correlation_id(r));
        if (it == target_of.end()) continue;
        const runtime::building_report* rep = ok_report(r);
        if (rep == nullptr)
            throw std::runtime_error("fill of '" + names[it->second] + "': " + describe(r));
        reports[it->second] = *rep;
        target_of.erase(it);
        ++answered;
    }
    return reports;
}

// --- watcher -------------------------------------------------------------------

watcher::watcher(std::uint16_t port, const std::vector<std::string>& names)
    : conn_("127.0.0.1", port) {
    for (std::size_t i = 0; i < names.size(); ++i) {
        api::watch_request w;
        w.correlation_id = i + 1;
        w.name = names[i];
        conn_.send(api::encode(api::request(w)));
    }
    for (std::size_t acked = 0; acked < names.size();) {
        const std::optional<std::string> frame = conn_.read_frame();
        if (!frame) throw std::runtime_error("watch connection closed before its acks");
        const api::decode_result<api::response> r = api::decode_response(*frame);
        const auto* ack = r.ok() ? std::get_if<api::watch_ack_response>(&*r.value) : nullptr;
        if (ack == nullptr || !ack->active) throw std::runtime_error("watch was not acked");
        ++acked;
    }
    reader_ = std::thread([this] { read_loop(); });
}

watcher::~watcher() {
    if (reader_.joinable()) static_cast<void>(finish());
}

void watcher::read_loop() {
    try {
        while (const std::optional<std::string> frame = conn_.read_frame()) {
            const clk::time_point at = clk::now();
            api::decode_result<api::response> r = api::decode_response(*frame);
            if (!r.ok()) continue;
            if (auto* p = std::get_if<api::push_response>(&*r.value)) {
                push rec;
                rec.name = p->report.name;
                rec.version = p->version;
                rec.received = at;
                rec.line = result_line(p->report);
                rec.report = std::move(p->report);
                const std::lock_guard<std::mutex> lock(m_);
                pushes_.push_back(std::move(rec));
                cv_.notify_all();
            }
        }
    } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(m_);
        if (!closing_) failure_ = e.what();
    }
    const std::lock_guard<std::mutex> lock(m_);
    done_ = true;
    cv_.notify_all();
}

std::size_t watcher::received() {
    const std::lock_guard<std::mutex> lock(m_);
    return pushes_.size();
}

std::size_t watcher::wait_for(std::size_t count, clk::time_point deadline) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait_until(lock, deadline, [&] { return pushes_.size() >= count || done_; });
    return pushes_.size();
}

std::vector<watcher::push> watcher::finish() {
    {
        const std::lock_guard<std::mutex> lock(m_);
        closing_ = true;
    }
    // Shutting both directions down wakes the reader blocked in recv.
    ::shutdown(conn_.fd(), SHUT_RDWR);
    reader_.join();
    const std::lock_guard<std::mutex> lock(m_);
    // Pushes it missed are counted by the caller; the reason goes to the log.
    if (!failure_.empty()) std::fprintf(stderr, "  watch connection failed: %s\n", failure_.c_str());
    return pushes_;
}

// --- appender ------------------------------------------------------------------

namespace {

api::request append_request(const std::string& corpus, const data::building& record) {
    api::append_scans_request req;
    req.corpus_name = corpus;
    req.records = {record};
    return req;
}

void record_ack(append_record& rec, const api::response& r) {
    rec.acked = clk::now();
    if (const auto* a = std::get_if<api::append_response>(&r)) {
        rec.ok = true;
        rec.version = a->version;
        rec.dirty = a->dirty;
    }
}

}  // namespace

std::vector<append_record> run_appends(std::uint16_t port, const std::string& corpus,
                                       const std::vector<data::building>& records,
                                       clk::time_point start, double interval_s,
                                       clk::time_point stop, watcher* w) {
    std::vector<append_record> out;
    if (interval_s <= 0.0) {
        // Closed loop: one append at a time, each waiting for its pushes.
        wire_client client(port);
        std::size_t expected_pushes = w != nullptr ? w->received() : 0;
        for (const data::building& rec : records) {
            if (clk::now() >= stop) break;
            append_record a;
            a.due = a.sent = clk::now();
            record_ack(a, client.call(append_request(corpus, rec)));
            expected_pushes += a.dirty;
            if (w != nullptr) w->wait_for(expected_pushes, clk::now() + std::chrono::seconds(30));
            out.push_back(a);
        }
        return out;
    }

    const auto interval = std::chrono::duration_cast<clk::duration>(
        std::chrono::duration<double>(interval_s));
    std::size_t n = 0;
    while (n < records.size() && start + interval * static_cast<long>(n) < stop) ++n;
    out.resize(n);
    for (std::size_t k = 0; k < n; ++k) out[k].due = start + interval * static_cast<long>(k);

    // Open loop on one thread: send each append when it falls due and read
    // acks whenever bytes arrive, so a slow ack never delays the schedule.
    const net::socket_fd sock = net::connect_tcp("127.0.0.1", port);
    api::frame_splitter frames;
    std::size_t sent = 0;
    std::size_t got = 0;
    while (got < n) {
        while (const std::optional<std::string> f = frames.next()) {
            const api::decode_result<api::response> r = api::decode_response(*f);
            const std::uint64_t id = r.ok() ? api::correlation_id(*r.value) : 0;
            if (id == 0 || id > sent) continue;
            record_ack(out[id - 1], *r.value);
            ++got;
        }
        if (frames.error()) throw std::runtime_error("appender: " + frames.error()->message);
        if (got == n) break;
        const clk::time_point now = clk::now();
        if (sent < n && now >= out[sent].due) {
            api::request req = append_request(corpus, records[sent]);
            api::set_correlation_id(req, sent + 1);
            out[sent].sent = now;
            net::send_all(sock.get(), api::encode(req));
            ++sent;
            continue;
        }
        const long wait_ms =
            sent < n ? static_cast<long>(
                           std::chrono::ceil<std::chrono::milliseconds>(out[sent].due - now).count())
                     : 30000;
        pollfd pfd{sock.get(), POLLIN, 0};
        const int rc = ::poll(&pfd, 1, static_cast<int>(wait_ms));
        if (rc < 0 && errno == EINTR) continue;
        if (rc < 0) throw std::system_error(errno, std::generic_category(), "appender: poll");
        if (rc == 0) {
            if (sent == n) throw std::runtime_error("appender: no ack within 30 s");
            continue;
        }
        char buf[4096];
        const ssize_t k = ::recv(sock.get(), buf, sizeof buf, 0);
        if (k < 0 && errno == EINTR) continue;
        if (k < 0) throw std::system_error(errno, std::generic_category(), "appender: recv");
        if (k == 0) throw std::runtime_error("appender: connection closed before every ack");
        frames.append(std::string_view(buf, static_cast<std::size_t>(k)));
    }
    return out;
}

}  // namespace perfbench
