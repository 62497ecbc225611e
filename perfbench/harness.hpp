#pragma once

/// \file harness.hpp
/// The system under test and the clients that drive it. A `fleet` is a
/// `federation::federated_server` (2 backends x 1 worker, quick profile)
/// over one corpus store, served by `net::tcp_server` on loopback with its
/// event loop on its own thread. Clients speak the FIS1 wire protocol over
/// real sockets through `net::frame_conn`.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/message.hpp"
#include "common.hpp"
#include "federation/federated_server.hpp"
#include "net/socket.hpp"
#include "net/tcp_server.hpp"

namespace perfbench {

/// Campaign seed of every fleet and every reference run. The benchmark's
/// `--seed` shapes the inputs; the system's own configuration is fixed.
inline constexpr std::uint64_t k_campaign_seed = 7;

/// The pipeline configuration the fleet serves with (quick profile).
[[nodiscard]] core::fis_one_config served_pipeline();

/// A report as its NDJSON line without the wall-time field — the
/// byte-comparable form of a result.
[[nodiscard]] std::string result_line(const runtime::building_report& report);

class fleet {
public:
    fleet(const std::string& store_dir, federation::routing_policy policy);
    ~fleet();

    fleet(const fleet&) = delete;
    fleet& operator=(const fleet&) = delete;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
    [[nodiscard]] federation::federated_server& server() noexcept { return *server_; }
    [[nodiscard]] net::tcp_server& front() noexcept { return *front_; }

private:
    std::unique_ptr<federation::federated_server> server_;
    std::unique_ptr<net::tcp_server> front_;
    std::uint16_t port_ = 0;
    std::thread loop_;
};

/// Destroy \p f (drain the front door, join its loop, tear the fleet down)
/// on a helper thread and wait at most \p bound_s for it. Returns false
/// when the bound passed first; the helper is then parked and the process
/// must end through `exit_now` rather than return from `main`.
bool bounded_teardown(std::unique_ptr<fleet> f, double bound_s);

/// True when some teardown overran its bound (see `bounded_teardown`).
[[nodiscard]] bool teardown_stuck();

/// Flush stdout/stderr and end the process with \p code without running
/// destructors — the exit path when a teardown is stuck.
[[noreturn]] void exit_now(int code);

/// Blocking request/response client over one connection.
class wire_client {
public:
    explicit wire_client(std::uint16_t port) : conn_("127.0.0.1", port) {}

    /// Send \p req under a fresh correlation id and return the first
    /// response carrying that id.
    api::response call(api::request req);

    /// Send without waiting; returns the correlation id used.
    std::uint64_t send(api::request req);

    /// The next response frame (throws on EOF or an undecodable frame).
    api::response next();

private:
    net::frame_conn conn_;
    std::uint64_t next_id_ = 1;
};

/// One timed request of a closed loop. Kept small: a warm run records tens
/// of thousands, and client memory must not swamp the server's peak RSS.
struct timed_read {
    std::uint32_t target = 0;  ///< index into the workload's name list
    std::uint32_t line = 0;    ///< index into `closed_loop_result::lines`
    bool ok = false;           ///< a building_response with an ok report
    clk::time_point sent{};
    clk::time_point received{};
};

struct closed_loop_result {
    std::vector<timed_read> reads;
    std::vector<std::string> lines;  ///< distinct `result_line`s answered
    /// With `keep_reports`: the first ok report of each target, by target.
    std::vector<runtime::building_report> first_reports;
};

/// Run `identify_resident{name, fresh}` requests closed-loop on \p conns
/// connections until \p deadline; each connection asks \p next_target for
/// its next name index. Requests in flight at the deadline still finish.
/// \p next_target is called from every connection's thread with that
/// connection's number and must be safe for that.
closed_loop_result closed_loop(std::uint16_t port, const std::vector<std::string>& names,
                               bool fresh, std::size_t conns, clk::time_point deadline,
                               const std::function<std::size_t(std::size_t)>& next_target,
                               bool keep_reports);

/// Resolve every name once through a loopback session without running the
/// pipeline: with the fleet paused, each `identify_resident{fresh}` is
/// resolved (loading the building into the resident directory) and its
/// queued job cancelled before the fleet resumes.
void load_residents(federation::federated_server& srv, const std::vector<std::string>& names);

/// Identify every name once (cache-filling, not fresh) with at most
/// \p window requests in flight on one connection. Returns the reports by
/// name index; throws when any request fails.
std::vector<runtime::building_report> fill(std::uint16_t port,
                                           const std::vector<std::string>& names,
                                           std::size_t window);

/// A standing `watch` on a set of names; a reader thread records every
/// push as it arrives.
class watcher {
public:
    struct push {
        std::string name;
        std::uint64_t version = 0;
        clk::time_point received{};
        std::string line;
        runtime::building_report report;
    };

    watcher(std::uint16_t port, const std::vector<std::string>& names);
    ~watcher();

    watcher(const watcher&) = delete;
    watcher& operator=(const watcher&) = delete;

    /// Pushes received so far.
    [[nodiscard]] std::size_t received();

    /// Wait until at least \p count pushes arrived or \p deadline passes;
    /// returns the number received.
    std::size_t wait_for(std::size_t count, clk::time_point deadline);

    /// Close the connection and join the reader; returns every push.
    std::vector<push> finish();

private:
    void read_loop();

    net::frame_conn conn_;
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<push> pushes_;
    bool done_ = false;
    bool closing_ = false;  ///< set by `finish`: a read error after it is expected
    std::string failure_;   ///< why the reader stopped early, if it did
    std::thread reader_;
};

/// One append as the appender saw it.
struct append_record {
    clk::time_point due{};
    clk::time_point sent{};
    clk::time_point acked{};
    bool ok = false;
    std::uint64_t version = 0;
    std::uint64_t dirty = 0;
};

/// Open-loop appender on the calling thread: send `append_scans{corpus,
/// records[k]}` at `start + k * interval` for every k whose due time is
/// before \p stop, and record each `append_response`. With a zero interval
/// it runs closed loop: the next append is due when the previous one is
/// acked and its pushes have arrived at \p w (the idle probe).
std::vector<append_record> run_appends(std::uint16_t port, const std::string& corpus,
                                       const std::vector<data::building>& records,
                                       clk::time_point start, double interval_s,
                                       clk::time_point stop, watcher* w);

}  // namespace perfbench
