// F7/F8 — Visualization scenario (paper §V.B.4, Figures 7 and 8).
//
// Paper deployment for the figures: "3 OvSes and 1 OF Wi-Fi are deployed in
// this practical network, and only 2 intrusion detection service elements
// and 2 application identification service elements are on-line".
//
// Figure 7 (normal): 5 wireless users — 4 browsing the web, 1 using SSH.
// Figure 8 (events): one user has left; one web user switched to BitTorrent
// (link utilization jumps); another user hits a malicious website and the
// IDS reports it immediately.
//
// This bench replays that exact script and prints the two WebUI snapshots
// plus the history replay between them.
//
// §monitor (--json): on top of the figure replay, an ingest-storm section
// measures the monitoring pipeline (DESIGN.md §12) against the seed's
// row-at-a-time bounded-vector store, and probes a 10M-event store for cold
// query / rollup-fetch latency and retention-bounded memory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "monitor/event_pipeline.h"
#include "monitor/webui.h"
#include "net/network.h"
#include "net/traffic.h"

using namespace livesec;

namespace {

// Deterministic synthetic event storm (xorshift64*): 23 event types, a few
// hundred distinct host MACs as typed subjects (as the controller raises
// them), occasional protocol details, 1ms time steps.
struct StormGen {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  SimTime t = 0;

  std::uint64_t rand() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }

  mon::NetworkEvent next() {
    const std::uint64_t r = rand();
    mon::NetworkEvent e;
    t += kMillisecond;
    e.time = t;
    e.type = static_cast<mon::EventType>(1 + (r % 23));
    e.set_subject(mon::Subject::mac(MacAddress::from_uint64(0x020000000000ull + r % 331)));
    if ((r & 15) == 0) e.set_detail((r & 16) ? "HTTP" : "bittorrent");
    e.dpid = static_cast<DatapathId>(1 + (r % 7));
    e.severity = static_cast<std::uint8_t>(r & 3);
    return e;
  }

  void fill(std::vector<mon::NetworkEvent>& out, std::size_t n) {
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(next());
  }
};

// The seed's event window, replicated for the baseline arm: a std::vector
// bounded by erasing the front — O(window) element moves per append once
// full (what the deque store and the columnar pipeline replaced).
class SeedEventStore {
 public:
  explicit SeedEventStore(std::size_t capacity) : capacity_(capacity) {}

  std::uint64_t append(mon::NetworkEvent event) {
    event.id = next_id_++;
    if (events_.size() == capacity_) events_.erase(events_.begin());
    events_.push_back(std::move(event));
    return events_.back().id;
  }
  std::size_t size() const { return events_.size(); }

 private:
  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
  std::vector<mon::NetworkEvent> events_;
};

struct MonitorStormResults {
  double seed_eps = 0;
  double row_eps = 0;
  double batch_eps = 0;
  double speedup_vs_seed = 0;
  double speedup_batch_vs_row = 0;
  double ingest10m_eps = 0;
  double query10m_window_ms = 0;
  double rollup10m_fetch_ms = 0;
  double store10m_memory_mb = 0;
  std::size_t store10m_rows_held = 0;
  std::uint64_t store10m_events_total = 0;
  std::size_t query10m_window_rows = 0;
  bool retention_bounded = false;
  bool rollup_nonempty = false;
};

MonitorStormResults run_monitor_storm() {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };

  constexpr std::size_t kChunk = 8192;
  constexpr std::size_t kSeedEvents = 200'000;      // front-erase arm is O(n·window)
  constexpr std::size_t kPipelineEvents = 2'000'000;
  constexpr std::size_t kBigEvents = 10'000'000;
  constexpr std::size_t kWindow = 1024;  // seed's event_store_capacity default

  MonitorStormResults r;
  std::vector<mon::NetworkEvent> chunk;

  // Arm 1: seed-replica bounded vector, row at a time. Generation happens
  // outside the timer in every arm so only store work is measured.
  {
    SeedEventStore store(kWindow);
    StormGen gen;
    Clock::duration spent{};
    for (std::size_t left = kSeedEvents; left > 0;) {
      const std::size_t n = std::min(kChunk, left);
      gen.fill(chunk, n);
      const auto t0 = Clock::now();
      for (auto& e : chunk) store.append(std::move(e));
      spent += Clock::now() - t0;
      left -= n;
    }
    r.seed_eps = static_cast<double>(kSeedEvents) / secs(spent);
  }

  // Arm 2: pipeline, row at a time, same retention window.
  {
    mon::EventPipeline pipe(mon::EventPipeline::config_for_capacity(kWindow));
    StormGen gen;
    Clock::duration spent{};
    for (std::size_t left = kPipelineEvents; left > 0;) {
      const std::size_t n = std::min(kChunk, left);
      gen.fill(chunk, n);
      const auto t0 = Clock::now();
      for (auto& e : chunk) pipe.append(std::move(e));
      spent += Clock::now() - t0;
      left -= n;
    }
    r.row_eps = static_cast<double>(kPipelineEvents) / secs(spent);
  }

  // Arm 3: pipeline, batched ingest, same retention window.
  {
    mon::EventPipeline pipe(mon::EventPipeline::config_for_capacity(kWindow));
    StormGen gen;
    Clock::duration spent{};
    for (std::size_t left = kPipelineEvents; left > 0;) {
      const std::size_t n = std::min(kChunk, left);
      gen.fill(chunk, n);
      const auto t0 = Clock::now();
      pipe.append_batch(std::move(chunk));
      spent += Clock::now() - t0;
      left -= n;
    }
    r.batch_eps = static_cast<double>(kPipelineEvents) / secs(spent);
  }
  r.speedup_vs_seed = r.batch_eps / r.seed_eps;
  r.speedup_batch_vs_row = r.batch_eps / r.row_eps;

  // 10M-event store: a million-row full tier, cold window query and rollup
  // fetch against it, memory bounded by the retention config.
  {
    const auto config = mon::EventPipeline::config_for_capacity(1'000'000);
    mon::EventPipeline pipe(config);
    StormGen gen;
    Clock::duration spent{};
    for (std::size_t left = kBigEvents; left > 0;) {
      const std::size_t n = std::min(kChunk, left);
      gen.fill(chunk, n);
      const auto t0 = Clock::now();
      pipe.append_batch(std::move(chunk));
      spent += Clock::now() - t0;
      left -= n;
    }
    r.ingest10m_eps = static_cast<double>(kBigEvents) / secs(spent);

    const SimTime t_end = gen.t;
    {
      const auto t0 = Clock::now();
      const auto rows = pipe.query_range(t_end - 2 * kSecond, t_end - kSecond);
      r.query10m_window_ms = secs(Clock::now() - t0) * 1e3;
      r.query10m_window_rows = rows.size();
    }
    {
      const auto t0 = Clock::now();
      const std::string rollup = pipe.rollup_json(t_end - 60 * kSecond, t_end + kSecond);
      r.rollup10m_fetch_ms = secs(Clock::now() - t0) * 1e3;
      r.rollup_nonempty = rollup.size() > 2;
    }
    r.store10m_memory_mb = static_cast<double>(pipe.memory_bytes()) / 1e6;
    r.store10m_rows_held = pipe.size();
    r.store10m_events_total = pipe.counters().appended;
    r.retention_bounded =
        pipe.size() <= (config.full_segments + 1) * config.segment_rows + config.staging_rows;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = benchjson::wants_json(argc, argv);
  ctrl::Controller::Config config;
  config.host_timeout = 4 * kSecond;  // so the departed user ages out quickly
  net::Network network(config);

  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& ovs3 = network.add_as_switch("ovs3", backbone);
  auto& ap = network.add_wifi_ap("of-wifi", backbone);
  (void)ovs3;

  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs1);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);
  network.add_service_element(svc::ServiceType::kProtocolIdentification, ovs1);
  network.add_service_element(svc::ServiceType::kProtocolIdentification, ovs2);

  // All user TCP traffic is identified and inspected.
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kTcp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kProtocolIdentification,
                          svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  // 5 wireless users + the servers they talk to.
  net::Host* users[5];
  for (int i = 0; i < 5; ++i) {
    users[i] = &network.add_wifi_host("user" + std::to_string(i), ap);
  }
  auto& web_server = network.add_host("web-server", ovs3, 1e9);
  auto& ssh_server = network.add_host("ssh-server", ovs3, 1e9);
  auto& bt_peer = network.add_host("bt-peer", ovs3, 1e9);

  net::HttpServerApp web(web_server, {.port = 80, .response_size = 16 * 1024});
  network.start();

  // Everyone except user3 keeps refreshing ARP (OS revalidation); user3 goes
  // silent after the first phase, which is how a host "leaves" in LiveSec.
  for (int i = 0; i < 5; ++i) {
    if (i != 3) users[i]->enable_periodic_announce(1 * kSecond);
  }
  users[3]->disable_periodic_announce();
  web_server.enable_periodic_announce(1 * kSecond);
  ssh_server.enable_periodic_announce(1 * kSecond);
  bt_peer.enable_periodic_announce(1 * kSecond);

  mon::WebUi ui(network.controller());

  // --- Figure 7: normal operation -------------------------------------------
  std::vector<std::unique_ptr<net::HttpClientApp>> browsing;
  for (int i = 0; i < 4; ++i) {
    browsing.push_back(std::make_unique<net::HttpClientApp>(
        *users[i], net::HttpClientApp::Config{
                       .server = web_server.ip(),
                       .first_src_port = static_cast<std::uint16_t>(21000 + i * 64),
                       .sessions = 3,
                       .concurrency = 2,
                       .expected_response = 16 * 1024}));
    browsing.back()->start();
  }
  net::SshApp ssh(*users[4], {.server = ssh_server.ip(), .duration = 20 * kSecond});
  ssh.start();
  network.run_for(3 * kSecond);

  const SimTime fig7_time = network.sim().now();
  if (!json) {
    std::printf("================ FIGURE 7: normal network environment ================\n");
    std::printf("%s\n", ui.snapshot_text(0, fig7_time).c_str());
  }

  // --- Figure 8: events ------------------------------------------------------
  // user3 leaves the network (no more traffic -> ARP timeout).
  // user1 switches from web to BitTorrent (traffic surge).
  // user2 accesses a malicious website; the IDS flags it immediately.
  net::BitTorrentApp bt(*users[1], {.peers = {bt_peer.ip()},
                                    .rate_bps = 20e6,
                                    .duration = 4 * kSecond});
  bt.start();
  net::AttackApp malicious(*users[2], {.server = web_server.ip(), .packets = 10});
  malicious.start();
  network.run_for(6 * kSecond);  // user3 idle long enough to age out

  const SimTime fig8_time = network.sim().now();
  if (!json) {
    std::printf("================ FIGURE 8: user leave / BT surge / attack ================\n");
    std::printf("%s\n", ui.snapshot_text(fig7_time, fig8_time).c_str());

    std::printf("================ history replay (event database) ================\n");
    std::printf("%s\n", ui.replay_text(fig7_time, fig8_time).c_str());
  }

  // Shape checks mirroring what the figures show.
  const auto& events = network.controller().events();
  const auto leaves = events.query_type(mon::EventType::kHostLeave, fig7_time, fig8_time);
  // Exactly user3 left; active users were kept alive by ARP refresh.
  const bool user_left =
      leaves.size() == 1 && leaves[0].subject_string() == users[3]->mac().to_string();
  const bool bt_seen = [&] {
    for (const auto& e :
         events.query_type(mon::EventType::kProtocolIdentified, fig7_time, fig8_time)) {
      if (e.detail_string() == "bittorrent") return true;
    }
    return false;
  }();
  const bool attack_seen =
      !events.query_type(mon::EventType::kAttackDetected, fig7_time, fig8_time).empty();
  const bool blocked =
      !events.query_type(mon::EventType::kFlowBlocked, fig7_time, fig8_time).empty();
  const bool web_users_seen = [&] {
    int http_users = 0;
    for (const MacAddress& user : network.controller().service_monitor().users()) {
      const auto* usage = network.controller().service_monitor().usage(user);
      if (usage && usage->contains(svc::l7::AppProtocol::kHttp)) ++http_users;
    }
    return http_users >= 4;
  }();

  // §monitor: ingest-storm and 10M-store metrics (DESIGN.md §12).
  const MonitorStormResults storm = run_monitor_storm();

  const bool ok = user_left && bt_seen && attack_seen && blocked && web_users_seen &&
                  storm.retention_bounded && storm.rollup_nonempty;
  if (json) {
    benchjson::Emitter out("bench_visualization");
    out.flag("user_left", user_left);
    out.flag("bittorrent_identified", bt_seen);
    out.flag("attack_detected", attack_seen);
    out.flag("flow_blocked", blocked);
    out.flag("web_users_seen", web_users_seen);
    out.metric("ingest_seed_eps", storm.seed_eps, "events/s");
    out.metric("ingest_pipeline_row_eps", storm.row_eps, "events/s");
    out.metric("ingest_pipeline_batch_eps", storm.batch_eps, "events/s");
    out.metric("ingest_speedup_vs_seed", storm.speedup_vs_seed, "x");
    out.metric("ingest_speedup_batch_vs_row", storm.speedup_batch_vs_row, "x");
    out.metric("ingest10m_eps", storm.ingest10m_eps, "events/s");
    out.metric("store10m_events_total", static_cast<double>(storm.store10m_events_total),
               "events");
    out.metric("store10m_rows_held", static_cast<double>(storm.store10m_rows_held), "rows");
    out.metric("store10m_memory_mb", storm.store10m_memory_mb, "MB");
    out.metric("query10m_window_ms", storm.query10m_window_ms, "ms");
    out.metric("query10m_window_rows", static_cast<double>(storm.query10m_window_rows),
               "rows");
    out.metric("rollup10m_fetch_ms", storm.rollup10m_fetch_ms, "ms");
    out.flag("ingest_gate_10x", storm.speedup_vs_seed >= 10.0);
    out.flag("store10m_retention_bounded", storm.retention_bounded);
    out.flag("rollup10m_nonempty", storm.rollup_nonempty);
    out.flag("shape_ok", ok);
    out.print();
  } else {
    std::printf(
        "figure-8 events: user_leave=%d bittorrent=%d attack=%d blocked=%d web_users>=4:%d\n",
        user_left, bt_seen, attack_seen, blocked, web_users_seen);
    std::printf("================ monitor ingest storm ================\n");
    std::printf("seed window store:   %.3g events/s (row at a time, O(n) front-erase)\n",
                storm.seed_eps);
    std::printf("pipeline row arm:    %.3g events/s\n", storm.row_eps);
    std::printf("pipeline batch arm:  %.3g events/s (%.1fx vs seed, %.1fx vs row arm)\n",
                storm.batch_eps, storm.speedup_vs_seed, storm.speedup_batch_vs_row);
    std::printf(
        "10M-event store:     ingest %.3g events/s, %zu rows held, %.1f MB, "
        "window query %.3f ms (%zu rows), rollup fetch %.3f ms, bounded=%d\n",
        storm.ingest10m_eps, storm.store10m_rows_held, storm.store10m_memory_mb,
        storm.query10m_window_ms, storm.query10m_window_rows, storm.rollup10m_fetch_ms,
        storm.retention_bounded);
    std::printf("shape check: %s\n", ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
