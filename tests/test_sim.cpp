// Unit tests for the discrete-event kernel and the Node/Port/Link substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "packet/packet.h"
#include "sim/event_queue.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace livesec::sim {
namespace {

TEST(EventQueue, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(1); });
  q.push(5, [&] { order.push_back(2); });
  q.push(10, [&] { order.push_back(3); });
  q.push(1, [&] { order.push_back(4); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{4, 2, 1, 3}));
}

TEST(EventQueue, StorageStaysBoundedUnderFarTimers) {
  // The FIT data-plane shape: 4 far timers (>= 1 s) that never come due
  // while 40 in-flight events re-spawn 0-10 us ahead, ~1M dispatches. Freed
  // callback slots must be reused, so the key heap and the slab track the
  // pending count, not the dispatch count.
  EventQueue q;
  for (int i = 1; i <= 4; ++i) q.push(i * kSecond, [] {});
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next_delay = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<SimTime>(rng % (10 * kMicrosecond + 1));
  };
  for (int i = 0; i < 40; ++i) q.push(next_delay(), [] {});
  std::size_t peak_pending = q.size();
  for (int i = 0; i < 1'000'000; ++i) {
    const Event e = q.pop();
    ASSERT_LT(e.time, kSecond);
    q.push(e.time + next_delay(), [] {});
    peak_pending = std::max(peak_pending, q.size());
  }
  EXPECT_LE(q.key_capacity(), 4 * peak_pending);
  EXPECT_LE(q.slab_capacity(), 4 * peak_pending);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(100, [&] { ++fired; });
  sim.schedule(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run_until(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(10, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(5, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

/// A node that records everything it receives.
class SinkNode : public Node {
 public:
  SinkNode(Simulator& sim, std::string name) : Node(sim, std::move(name)) { add_port(); }
  void handle_packet(PortId in_port, pkt::PacketPtr packet) override {
    arrivals.emplace_back(simulator().now(), in_port);
    packets.push_back(std::move(packet));
  }
  std::vector<std::pair<SimTime, PortId>> arrivals;
  std::vector<pkt::PacketPtr> packets;
};

class SourceNode : public Node {
 public:
  SourceNode(Simulator& sim) : Node(sim, "src") { add_port(); }
  void handle_packet(PortId, pkt::PacketPtr) override {}
  void emit(pkt::PacketPtr p) { send(0, std::move(p)); }
};

pkt::PacketPtr test_packet(std::size_t payload = 1000) {
  return pkt::PacketBuilder()
      .eth(MacAddress::from_uint64(1), MacAddress::from_uint64(2))
      .ipv4(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), pkt::IpProto::kUdp)
      .udp(1111, 2222)
      .payload_size(payload)
      .finalize();
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  Simulator sim;
  SourceNode src(sim);
  SinkNode dst(sim, "dst");
  Link::Config config;
  config.bandwidth_bps = 1e9;
  config.propagation_delay = 5 * kMicrosecond;
  auto link = connect(sim, src.port(0), dst.port(0), config);

  auto p = test_packet(1000);
  const SimTime serialization =
      static_cast<SimTime>(static_cast<double>(p->wire_size()) * 8.0 / 1e9 * kSecond);
  src.emit(p);
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(dst.arrivals[0].first, serialization + config.propagation_delay);
}

TEST(Link, BandwidthCapsThroughput) {
  Simulator sim;
  SourceNode src(sim);
  SinkNode dst(sim, "dst");
  Link::Config config;
  config.bandwidth_bps = 100e6;  // 100 Mbps
  config.propagation_delay = 0;
  config.max_queue_bytes = 1 << 30;  // no tail drop for this test
  auto link = connect(sim, src.port(0), dst.port(0), config);

  // Offer 1000 packets instantaneously; drain time must match 100 Mbps.
  std::uint64_t offered_bytes = 0;
  for (int i = 0; i < 1000; ++i) {
    auto p = test_packet(1400);
    offered_bytes += p->wire_size();
    src.emit(std::move(p));
  }
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 1000u);
  const double seconds = to_seconds(sim.now());
  const double rate = static_cast<double>(offered_bytes) * 8.0 / seconds;
  EXPECT_NEAR(rate, 100e6, 1e6);
}

TEST(Link, TailDropsWhenQueueOverflows) {
  Simulator sim;
  SourceNode src(sim);
  SinkNode dst(sim, "dst");
  Link::Config config;
  config.bandwidth_bps = 1e6;  // slow link
  config.max_queue_bytes = 5000;
  auto link = connect(sim, src.port(0), dst.port(0), config);

  for (int i = 0; i < 100; ++i) src.emit(test_packet(1400));
  sim.run();
  EXPECT_LT(dst.arrivals.size(), 100u);
  EXPECT_GT(link->dropped_packets(), 0u);
  EXPECT_EQ(dst.arrivals.size() + link->dropped_packets(), 100u);
}

TEST(Link, FullDuplexDirectionsAreIndependent) {
  Simulator sim;
  SourceNode a(sim);
  SourceNode b(sim);
  Link::Config config;
  config.bandwidth_bps = 1e9;
  config.propagation_delay = 1 * kMicrosecond;
  auto link = connect(sim, a.port(0), b.port(0), config);

  // Saturate a->b; a single b->a packet must not queue behind it.
  for (int i = 0; i < 100; ++i) a.emit(test_packet(1400));
  b.emit(test_packet(100));
  sim.run();
  // b->a delivered long before all a->b: check counters only (both sides
  // received), as SourceNode ignores arrivals.
  EXPECT_EQ(a.port(0).rx_packets(), 1u);
  EXPECT_EQ(b.port(0).rx_packets(), 100u);
}

/// A sink whose pipeline cost is its ingress delay: the link calls
/// `handle_packet` that long after the packet's arrival.
class DelayedSinkNode : public SinkNode {
 public:
  DelayedSinkNode(Simulator& sim, SimTime delay) : SinkNode(sim, "delayed") {
    set_ingress_delay(delay);
  }
};

TEST(Link, DeliversAfterReceiverIngressDelay) {
  Simulator sim;
  SourceNode src(sim);
  const SimTime delay = 25 * kMicrosecond;
  DelayedSinkNode dst(sim, delay);
  Link::Config config;
  config.bandwidth_bps = 1e9;
  config.propagation_delay = 5 * kMicrosecond;
  auto link = connect(sim, src.port(0), dst.port(0), config);

  auto p = test_packet(1000);
  const SimTime serialization =
      static_cast<SimTime>(static_cast<double>(p->wire_size()) * 8.0 / 1e9 * kSecond);
  src.emit(p);
  src.emit(p);
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_EQ(dst.arrivals[0].first, serialization + config.propagation_delay + delay);
  EXPECT_EQ(dst.arrivals[1].first, 2 * serialization + config.propagation_delay + delay);
  EXPECT_EQ(dst.port(0).rx_packets(), 2u);
}

TEST(Link, BacklogIsReleasedAtArrivalNotAfterIngressDelay) {
  // 1 GbE, 1000 B payloads every 10 us: each packet arrives ~13.4 us after
  // it is sent, so at most two are in flight and none is dropped. Counting
  // a packet until arrival + 25 us would hold four and tail-drop.
  const auto run = [](SimTime ingress_delay) {
    Simulator sim;
    SourceNode src(sim);
    DelayedSinkNode dst(sim, ingress_delay);
    Link::Config config;
    config.max_queue_bytes = 3500;
    auto link = connect(sim, src.port(0), dst.port(0), config);
    std::vector<std::size_t> backlog;
    for (int i = 0; i < 50; ++i) {
      const SimTime at = i * 10 * kMicrosecond;
      sim.schedule_at(at, [&src] { src.emit(test_packet(1000)); });
      sim.schedule_at(at + 1 * kMicrosecond, [&] { backlog.push_back(link->backlog_bytes(0)); });
    }
    sim.run();
    EXPECT_EQ(link->dropped_packets(), 0u);
    EXPECT_EQ(dst.arrivals.size(), 50u);
    EXPECT_EQ(link->backlog_bytes(0), 0u);
    return backlog;
  };
  const std::vector<std::size_t> plain = run(0);
  ASSERT_EQ(plain.size(), 50u);
  EXPECT_EQ(*std::max_element(plain.begin(), plain.end()), 2 * test_packet(1000)->wire_size());
  EXPECT_EQ(run(25 * kMicrosecond), plain);
}

TEST(Port, UnwiredTransmitCountsAsDrop) {
  Simulator sim;
  SourceNode src(sim);
  src.emit(test_packet());
  sim.run();
  EXPECT_EQ(src.port(0).dropped(), 1u);
  EXPECT_EQ(src.port(0).tx_packets(), 0u);
}

TEST(Port, CountersTrackTraffic) {
  Simulator sim;
  SourceNode src(sim);
  SinkNode dst(sim, "dst");
  auto link = connect(sim, src.port(0), dst.port(0));
  auto p = test_packet(500);
  const std::size_t size = p->wire_size();
  src.emit(p);
  sim.run();
  EXPECT_EQ(src.port(0).tx_packets(), 1u);
  EXPECT_EQ(src.port(0).tx_bytes(), size);
  EXPECT_EQ(dst.port(0).rx_packets(), 1u);
  EXPECT_EQ(dst.port(0).rx_bytes(), size);
}

}  // namespace
}  // namespace livesec::sim
