// M1-M10 — Supporting micro-benchmarks (google-benchmark): component costs
// underlying the system results — flow-table lookup, Aho-Corasick scan, L7
// classification, policy lookup, packet codec, flow-session churn.
#include <benchmark/benchmark.h>

#include <random>

#include "controller/policy.h"
#include "controller/session_table.h"
#include "net/network.h"
#include "net/traffic.h"
#include "openflow/flow_table.h"
#include "packet/packet.h"
#include "services/ids/ids_engine.h"
#include "services/l7/l7_classifier.h"
#include "sim/event_queue.h"

namespace livesec {
namespace {

pkt::Packet make_packet(std::uint32_t flow, std::string_view payload) {
  return pkt::PacketBuilder()
      .eth(MacAddress::from_uint64(0xA0000 + (flow % 50)), MacAddress::from_uint64(0xB))
      .ipv4(Ipv4Address((10u << 24) | (flow % 250 + 1)), Ipv4Address(10, 0, 0, 2),
            pkt::IpProto::kTcp)
      .tcp(static_cast<std::uint16_t>(10000 + flow % 20000), 80, pkt::TcpFlags::kPsh)
      .payload(payload)
      .build();
}

// M1: flow table lookup with a realistic mix of exact entries.
void BM_FlowTableLookup(benchmark::State& state) {
  of::FlowTable table;
  const int entries = static_cast<int>(state.range(0));
  std::vector<pkt::FlowKey> keys;
  for (int i = 0; i < entries; ++i) {
    const pkt::Packet p = make_packet(static_cast<std::uint32_t>(i), "x");
    const pkt::FlowKey key = pkt::FlowKey::from_packet(p);
    keys.push_back(key);
    of::FlowEntry e;
    e.match = of::Match::exact(1, key);
    e.actions = of::output_to(2);
    table.add(e, 0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1, keys[i % keys.size()], 100, 1));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookup)->Arg(16)->Arg(128)->Arg(1024)->Arg(100)->Arg(1000)->Arg(10000);

// M1b: reference linear scan at the same table sizes — what lookup cost
// before the exact-match hash tier. Flat BM_FlowTableLookup next to a
// linearly growing BM_FlowTableLookupLinearScan is the fast path working.
void BM_FlowTableLookupLinearScan(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  std::vector<pkt::FlowKey> keys;
  std::vector<of::FlowEntry> table;
  for (int i = 0; i < entries; ++i) {
    const pkt::Packet p = make_packet(static_cast<std::uint32_t>(i), "x");
    const pkt::FlowKey key = pkt::FlowKey::from_packet(p);
    keys.push_back(key);
    of::FlowEntry e;
    e.match = of::Match::exact(1, key);
    e.actions = of::output_to(2);
    table.push_back(e);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const pkt::FlowKey& key = keys[i % keys.size()];
    const of::FlowEntry* hit = nullptr;
    for (const of::FlowEntry& e : table) {
      if (e.match.matches(1, key)) {
        hit = &e;
        break;
      }
    }
    benchmark::DoNotOptimize(hit);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookupLinearScan)->Arg(100)->Arg(1000)->Arg(10000);

// M1c: lookup with wildcard entries shadow-checking the exact tier — the
// fallback path must not regress when a few wildcard rules coexist.
void BM_FlowTableLookupWithWildcards(benchmark::State& state) {
  of::FlowTable table;
  const int entries = static_cast<int>(state.range(0));
  std::vector<pkt::FlowKey> keys;
  for (int i = 0; i < entries; ++i) {
    const pkt::FlowKey key = pkt::FlowKey::from_packet(make_packet(static_cast<std::uint32_t>(i), "x"));
    keys.push_back(key);
    of::FlowEntry e;
    e.match = of::Match::exact(1, key);
    e.actions = of::output_to(2);
    table.add(e, 0);
  }
  // A handful of low-priority monitoring-style wildcard rules.
  for (std::uint16_t p = 1; p <= 8; ++p) {
    of::FlowEntry w;
    w.match = of::Match().tp_dst(p);
    w.priority = p;  // below the exact entries' default priority
    w.actions = of::output_to(3);
    table.add(w, 0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1, keys[i % keys.size()], 100, 1));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowTableLookupWithWildcards)->Arg(100)->Arg(1000)->Arg(10000);

// M2: Aho-Corasick scan throughput over the default IDS rule set.
svc::ids::AhoCorasick default_rules_automaton() {
  svc::ids::AhoCorasick ac;
  for (const auto& rule : svc::ids::default_rules()) {
    for (const auto& content : rule.contents) ac.add_pattern(content);
  }
  ac.build();
  return ac;
}

void scan_payload(benchmark::State& state, const std::vector<std::uint8_t>& payload) {
  const svc::ids::AhoCorasick ac = default_rules_automaton();
  std::vector<svc::ids::AhoCorasick::Hit> hits;
  for (auto _ : state) {
    hits.clear();
    benchmark::DoNotOptimize(ac.scan(payload, hits));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void BM_AhoCorasickScan(benchmark::State& state) {
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>('a' + i % 26);
  }
  scan_payload(state, payload);
}
BENCHMARK(BM_AhoCorasickScan)->Arg(64)->Arg(1400)->Arg(64 * 1024);

// M2, HTTP-text arm: request headers repeated to size. Their bigrams ("GE",
// "ET", "id", "d=", "oo", "ro", "al", "ma", "..", "./", "X-", ...) open
// pattern windows often, so the root window skip jumps least here.
void BM_AhoCorasickScanHttpText(benchmark::State& state) {
  static const std::string kRequest =
      "GET /static/../img/logo.png?id=4711&ref=root HTTP/1.1\r\n"
      "Host: www.example.org\r\n"
      "User-Agent: Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 Chrome/120.0\r\n"
      "Accept: text/html,application/xhtml+xml;q=0.9,*/*;q=0.8\r\n"
      "Accept-Language: en-US,en;q=0.5\r\n"
      "Cookie: id=ab12; session=local-mail; theme=normal\r\n"
      "X-Forwarded-For: 10.0.0.1\r\n"
      "Connection: keep-alive\r\n\r\n";
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(kRequest[i % kRequest.size()]);
  }
  scan_payload(state, payload);
}
BENCHMARK(BM_AhoCorasickScanHttpText)->Arg(64)->Arg(1400)->Arg(64 * 1024);

// M2b: full IDS engine per-packet inspection cost.
void BM_IdsEngineInspect(benchmark::State& state) {
  svc::ids::IdsEngine engine;
  std::uint32_t flow = 0;
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'q');
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.inspect(make_packet(flow++ % 1000, payload)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_IdsEngineInspect)->Arg(128)->Arg(1400);

// M3: L7 classification of a fresh HTTP flow.
void BM_L7ClassifyFreshFlow(benchmark::State& state) {
  svc::l7::L7Classifier classifier;
  std::uint32_t flow = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classifier.classify(make_packet(flow++, "GET /index.html HTTP/1.1\r\n\r\n")));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L7ClassifyFreshFlow);

// M4: policy table lookup with N policies, worst case (no match).
void BM_PolicyLookup(benchmark::State& state) {
  ctrl::PolicyTable table;
  for (int i = 0; i < state.range(0); ++i) {
    ctrl::Policy p;
    p.tp_dst = static_cast<std::uint16_t>(10000 + i);
    p.action = ctrl::PolicyAction::kRedirect;
    table.add(p);
  }
  const pkt::FlowKey key = pkt::FlowKey::from_packet(make_packet(1, "x"));
  for (auto _ : state) benchmark::DoNotOptimize(table.lookup(key));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PolicyLookup)->Arg(8)->Arg(64)->Arg(512);

// M7: controller flow-setup rate — full deployments processed end to end:
// ARP + packet-in + policy lookup + LB + FlowMod fan-out per new flow.
void BM_ControllerFlowSetup(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    net::Network network;
    auto& backbone = network.add_legacy_switch("backbone");
    auto& ovs1 = network.add_as_switch("ovs1", backbone);
    auto& ovs2 = network.add_as_switch("ovs2", backbone);
    auto& se_sw = network.add_as_switch("se", backbone);
    network.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw);
    ctrl::Policy policy;
    policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
    policy.action = ctrl::PolicyAction::kRedirect;
    policy.service_chain = {svc::ServiceType::kIntrusionDetection};
    network.controller().policies().add(policy);
    auto& a = network.add_host("a", ovs1, 10e9);
    auto& b = network.add_host("b", ovs2, 10e9);
    network.start();
    state.ResumeTiming();

    constexpr int kFlows = 500;
    for (int f = 0; f < kFlows; ++f) {
      pkt::Packet p = pkt::PacketBuilder()
                          .ipv4(a.ip(), b.ip(), pkt::IpProto::kUdp)
                          .udp(static_cast<std::uint16_t>(10000 + f), 9000)
                          .payload("first packet")
                          .build();
      a.send_ip(std::move(p));
    }
    network.run_for(2 * kSecond);
    benchmark::DoNotOptimize(network.controller().stats().flows_installed);
    state.SetItemsProcessed(state.items_processed() + kFlows);
  }
}
// Fixed iteration count: each iteration builds a full deployment (~50 ms),
// so auto-calibration would run for minutes.
BENCHMARK(BM_ControllerFlowSetup)->Unit(benchmark::kMillisecond)->Iterations(10);

// M8: event dispatch is copy-free end to end. The queue constructs each
// callback in a slab slot, moves it out on pop, and relocates the slab when
// it grows; a single accidental copy (e.g. a pop by value of std::function,
// or a copying slab growth) would silently tax every event. Asserted, not
// just timed: the benchmark errors out if a 1M event push/dispatch cycle
// copies any callback even once.
void BM_EventQueueDrainZeroCopy(benchmark::State& state) {
  struct CountingCallback {
    std::uint64_t* copies;
    std::uint64_t* dispatched;
    CountingCallback(std::uint64_t* c, std::uint64_t* d) : copies(c), dispatched(d) {}
    CountingCallback(const CountingCallback& other)
        : copies(other.copies), dispatched(other.dispatched) {
      ++*copies;
    }
    CountingCallback(CountingCallback&&) = default;
    CountingCallback& operator=(const CountingCallback&) = default;
    CountingCallback& operator=(CountingCallback&&) = default;
    void operator()() const { ++*dispatched; }
  };
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr std::uint64_t kPending = 1024;
  for (auto _ : state) {
    std::uint64_t copies = 0;
    std::uint64_t dispatched = 0;
    sim::EventQueue queue;
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    auto next_delay = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return static_cast<SimTime>(rng % 1024);
    };
    for (std::uint64_t i = 0; i < kPending; ++i) {
      queue.push(next_delay(), CountingCallback(&copies, &dispatched));
    }
    // Steady-state churn: every dispatch schedules a successor into the slot
    // its own pop just freed, with ~1024 keys sifting through the heap.
    while (dispatched < kEvents) {
      sim::Event e = queue.pop();
      e.action();
      queue.push(e.time + next_delay(), CountingCallback(&copies, &dispatched));
    }
    benchmark::DoNotOptimize(dispatched);
    if (copies != 0) {
      state.SkipWithError("event queue copied a callback during drain");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_EventQueueDrainZeroCopy)->Unit(benchmark::kMillisecond)->Iterations(3);

// M8b: the FIT data-plane queue shape (DESIGN.md §5). A handful of far
// timers (>= 1 s) plus ~40 in-flight packet events that each re-spawn
// 0-10 us ahead. Reports time per dispatched event and the key heap's and
// callback slab's retained capacity, which must track the ~44 pending
// events, not the dispatch count.
void BM_EventQueueFarTimerChain(benchmark::State& state) {
  constexpr std::uint64_t kEvents = 250'000;
  constexpr std::uint64_t kChains = 40;
  constexpr SimTime kMaxDelay = 10 * kMicrosecond;
  std::size_t key_capacity = 0;
  std::size_t slab_capacity = 0;
  for (auto _ : state) {
    sim::EventQueue queue;
    std::uint64_t dispatched = 0;
    for (int i = 1; i <= 4; ++i) queue.push(i * kSecond, [] {});
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;
    auto next_delay = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return static_cast<SimTime>(rng % (kMaxDelay + 1));
    };
    for (std::uint64_t i = 0; i < kChains; ++i) {
      queue.push(next_delay(), [&dispatched] { ++dispatched; });
    }
    while (dispatched < kEvents) {
      sim::Event e = queue.pop();
      e.action();
      queue.push(e.time + next_delay(), [&dispatched] { ++dispatched; });
    }
    key_capacity = queue.key_capacity();
    slab_capacity = queue.slab_capacity();
    benchmark::DoNotOptimize(dispatched);
  }
  state.counters["time_per_event"] = benchmark::Counter(
      static_cast<double>(kEvents),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.counters["key_capacity"] = static_cast<double>(key_capacity);
  state.counters["slab_capacity"] = static_cast<double>(slab_capacity);
}
BENCHMARK(BM_EventQueueFarTimerChain)->Unit(benchmark::kMillisecond);

// M9: fuzzy digest over a shared payload (DESIGN.md §11). Two asserted
// properties ride along with the timing: the digest of a shared payload is
// computed at most once per allocation no matter how many packets (or SE
// probes) read it, and repeated reads return the same object. A memoization
// regression would silently re-shingle every viral packet, so the benchmark
// errors out rather than just reporting a slower number.
void BM_FuzzyDigestMemoized(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    const pkt::PayloadPtr payload = pkt::make_payload(bytes);
    const std::uint64_t before = pkt::Payload::digest_computations();
    const FuzzyDigest& first = payload->fuzzy_digest();
    benchmark::DoNotOptimize(first);
    for (int reads = 0; reads < 64; ++reads) {  // every packet of a 64-chunk flow
      benchmark::DoNotOptimize(payload->fuzzy_digest());
    }
    if (pkt::Payload::digest_computations() != before + 1 ||
        &payload->fuzzy_digest() != &first) {
      state.SkipWithError("payload digest was recomputed; memoization broke");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FuzzyDigestMemoized)->Arg(1400)->Arg(64 * 1024);

// M9b: the raw shingle/minhash pass itself — the cost a verdict-cache miss
// pays once per unique content, and the upper bound memoization saves.
void BM_FuzzyDigestCompute(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 197 + 13);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FuzzyDigest::of(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FuzzyDigestCompute)->Arg(1400)->Arg(64 * 1024);

// M6: packet wire codec round trip.
void BM_PacketSerializeParse(benchmark::State& state) {
  const pkt::Packet p = make_packet(1, std::string(1400, 'x'));
  for (auto _ : state) {
    const auto bytes = p.serialize();
    benchmark::DoNotOptimize(pkt::Packet::parse(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1400);
}
BENCHMARK(BM_PacketSerializeParse);

// M10: flow-session churn at service_warm's scale — 32,768 live sessions
// between 32 clients and 8 services, the first 3 services redirected through
// an SE (3/8 of flows steered). Each iteration is one setup (the duplicate
// check of an absent key, then open) and one FlowRemoved (close). Arg 0
// closes the oldest session, arg 1 a random one.
void BM_SessionTableChurn(benchmark::State& state) {
  constexpr std::uint32_t kLive = 32768;
  const bool random_close = state.range(0) != 0;
  const auto flow_key = [](std::uint32_t n) {
    const std::uint32_t client = n % 32;
    const std::uint32_t service = (n / 32) % 8;
    pkt::FlowKey key;
    key.dl_src = MacAddress::from_uint64(0xC0000 + client);
    key.dl_dst = MacAddress::from_uint64(0x50000 + service);
    key.dl_type = 0x0800;
    key.nw_src = Ipv4Address((10u << 24) | ((n >> 16) << 8) | client);
    key.nw_dst = Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(service));
    key.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kTcp);
    key.tp_src = static_cast<std::uint16_t>(n);
    key.tp_dst = 80;
    return key;
  };
  ctrl::SessionTable table;
  std::uint32_t next = 0;
  const auto setup = [&table, &flow_key, &next]() {
    const pkt::FlowKey key = flow_key(next++);
    benchmark::DoNotOptimize(table.find(key));
    const std::uint32_t service = key.nw_dst.value() & 0xFF;
    const MacAddress se = MacAddress::from_uint64(0x5E000 + service);
    return table.open(key, service < 3 ? std::span<const MacAddress>(&se, 1)
                                       : std::span<const MacAddress>());
  };
  std::vector<std::uint32_t> live(kLive);
  for (std::uint32_t& slot : live) slot = setup();
  std::mt19937_64 rng(1001);
  std::uint32_t oldest = 0;
  for (auto _ : state) {
    std::uint32_t& victim = live[random_close ? rng() % kLive : oldest++ % kLive];
    table.close(victim);
    victim = setup();
    benchmark::DoNotOptimize(victim);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SessionTableChurn)->ArgName("random_close")->Arg(0)->Arg(1);

}  // namespace
}  // namespace livesec

// Custom main so `--json` works uniformly across all bench binaries: it is
// rewritten into google-benchmark's native `--benchmark_format=json` flag.
int main(int argc, char** argv) {
  std::vector<char*> args;
  static char json_flag[] = "--benchmark_format=json";
  for (int i = 0; i < argc; ++i) {
    args.push_back(std::string_view(argv[i]) == "--json" ? json_flag : argv[i]);
  }
  int rewritten_argc = static_cast<int>(args.size());
  benchmark::Initialize(&rewritten_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(rewritten_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
