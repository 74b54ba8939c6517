#include "monitor/rollup.h"

#include <algorithm>
#include <sstream>

namespace livesec::mon {

void encode_type_counts(pkt::BufferWriter& w, const TypeCounts& counts) {
  const auto non_zero = std::count_if(counts.begin(), counts.end(),
                                      [](std::uint32_t c) { return c != 0; });
  w.u8(static_cast<std::uint8_t>(non_zero));
  for (std::size_t slot = 0; slot < counts.size(); ++slot) {
    if (counts[slot] == 0) continue;
    w.u8(static_cast<std::uint8_t>(slot));
    w.u32(counts[slot]);
  }
}

bool decode_type_counts(pkt::BufferReader& r, TypeCounts& counts) {
  const std::uint8_t non_zero = r.u8();
  if (!r.ok() || non_zero > kEventTypeSlots) return false;
  for (std::uint8_t j = 0; j < non_zero; ++j) {
    const std::uint8_t slot = r.u8();
    const std::uint32_t count = r.u32();
    if (slot >= kEventTypeSlots) return false;
    counts[slot] = count;
  }
  return r.ok();
}

std::size_t TopK::KeyHash::operator()(const SubjectKey& key) const noexcept {
  const std::uint64_t typed = (key.value * 0x9E3779B97F4A7C15ull) ^ static_cast<std::uint8_t>(key.kind);
  return static_cast<std::size_t>(typed ^ std::hash<std::string>{}(key.text));
}

void TopK::ingest(const SubjectKey& key) {
  ++ingested_;
  auto it = counts_.find(key);
  if (it != counts_.end()) {
    ++it->second;
    return;
  }
  if (counts_.size() < capacity_) {
    counts_.emplace(key, 1);
    return;
  }
  // Misra-Gries step: charge the newcomer against every resident counter.
  for (auto entry = counts_.begin(); entry != counts_.end();) {
    if (--entry->second == 0) {
      entry = counts_.erase(entry);
    } else {
      ++entry;
    }
  }
}

std::vector<std::pair<std::string, std::uint64_t>> TopK::top(std::size_t k) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counts_.size());
  for (const auto& [key, count] : counts_) out.emplace_back(key.to_string(), count);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

void TopK::encode(pkt::BufferWriter& w) const {
  w.u32(static_cast<std::uint32_t>(capacity_));
  w.u64(ingested_);
  // Key-sorted so the encoding is byte-identical across runs.
  std::vector<std::pair<SubjectKey, std::uint64_t>> sorted(counts_.begin(), counts_.end());
  std::sort(sorted.begin(), sorted.end());
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  for (const auto& [key, count] : sorted) {
    w.u8(static_cast<std::uint8_t>(key.kind));
    w.u64(key.value);
    w.length_prefixed_string(key.text);
    w.u64(count);
  }
}

std::optional<TopK> TopK::decode(pkt::BufferReader& r) {
  TopK out(r.u32());
  out.ingested_ = r.u64();
  const std::uint32_t entries = r.u32();
  if (!r.ok() || entries > r.remaining() / 19) return std::nullopt;
  for (std::uint32_t i = 0; i < entries; ++i) {
    SubjectKey key;
    key.kind = static_cast<SubjectKind>(r.u8());
    key.value = r.u64();
    key.text = r.length_prefixed_string();
    const std::uint64_t count = r.u64();
    // Only the canonical form of a key is accepted, so equal keys render
    // equally.
    if (!r.ok() || SubjectKey::parse(key.to_string()) != key) return std::nullopt;
    out.counts_.emplace(std::move(key), count);
  }
  if (out.counts_.size() > out.capacity_) return std::nullopt;
  return out;
}

// --- RollupStore -------------------------------------------------------------

void RollupStore::ingest(const NetworkEvent& event) {
  ++total_;
  const SimTime start = bucket_start(event.time);
  if (buckets_.empty() || buckets_.back().start < start) {
    buckets_.push_back(Bucket{start});
  }
  // Ingest times are monotone, so the target is always the last bucket.
  Bucket& bucket = buckets_.back();
  ++bucket.by_type[static_cast<std::uint8_t>(event.type) & (kEventTypeSlots - 1)];
  ++bucket.total;
  bucket.severity_max = std::max(bucket.severity_max, event.severity);

  if (event.subject.kind != SubjectKind::kNone) subjects_.ingest(SubjectKey::of(event));
  if (event.type == EventType::kProtocolIdentified && event.detail.kind != DetailKind::kNone) {
    protocols_.ingest(SubjectKey::parse(event.detail_string()));
  }
}

std::pair<std::size_t, std::size_t> RollupStore::bucket_span(SimTime from, SimTime to) const {
  const auto begin = std::lower_bound(
      buckets_.begin(), buckets_.end(), from, [this](const Bucket& b, SimTime t) {
        return b.start + bucket_width_ <= t;  // bucket entirely before `from`
      });
  const auto end = std::lower_bound(begin, buckets_.end(), to,
                                    [](const Bucket& b, SimTime t) { return b.start < t; });
  return {static_cast<std::size_t>(begin - buckets_.begin()),
          static_cast<std::size_t>(end - buckets_.begin())};
}

std::uint64_t RollupStore::count_type(EventType type, SimTime from, SimTime to) const {
  const auto [begin, end] = bucket_span(from, to);
  const std::size_t slot = static_cast<std::uint8_t>(type) & (kEventTypeSlots - 1);
  std::uint64_t count = 0;
  for (std::size_t i = begin; i < end; ++i) count += buckets_[i].by_type[slot];
  return count;
}

std::uint64_t RollupStore::count_all(SimTime from, SimTime to) const {
  const auto [begin, end] = bucket_span(from, to);
  std::uint64_t count = 0;
  for (std::size_t i = begin; i < end; ++i) count += buckets_[i].total;
  return count;
}

void RollupStore::prune_before(SimTime t) {
  while (!buckets_.empty() && buckets_.front().start + bucket_width_ <= t) {
    buckets_.pop_front();
    ++pruned_;
  }
}

std::string RollupStore::to_json(SimTime from, SimTime to, std::size_t top_k) const {
  std::ostringstream out;
  out << "{\"bucket_width\":" << bucket_width_ << ",\"total\":" << total_
      << ",\"pruned_buckets\":" << pruned_ << ",\"buckets\":[";
  const auto [begin, end] = bucket_span(from, to);
  for (std::size_t i = begin; i < end; ++i) {
    const Bucket& b = buckets_[i];
    if (i > begin) out << ",";
    out << "{\"t\":" << b.start << ",\"total\":" << b.total
        << ",\"sev_max\":" << static_cast<int>(b.severity_max) << ",\"by_type\":{";
    bool first = true;
    for (std::size_t slot = 0; slot < b.by_type.size(); ++slot) {
      if (b.by_type[slot] == 0) continue;
      if (!first) out << ",";
      out << "\"" << event_type_name(static_cast<EventType>(slot)) << "\":" << b.by_type[slot];
      first = false;
    }
    out << "}}";
  }
  out << "],";
  const auto emit_topk = [&out](const char* name, const TopK& table, std::size_t k) {
    out << "\"" << name << "\":[";
    bool first = true;
    for (const auto& [key, count] : table.top(k)) {
      if (!first) out << ",";
      out << "{\"key\":\"" << json_escape(key) << "\",\"count\":" << count << "}";
      first = false;
    }
    out << "]";
  };
  emit_topk("top_subjects", subjects_, top_k);
  out << ",";
  emit_topk("top_protocols", protocols_, top_k);
  out << "}";
  return out.str();
}

void RollupStore::encode(pkt::BufferWriter& w) const {
  w.u64(static_cast<std::uint64_t>(bucket_width_));
  w.u64(total_);
  w.u64(pruned_);
  w.u32(static_cast<std::uint32_t>(buckets_.size()));
  for (const Bucket& b : buckets_) {
    w.u64(static_cast<std::uint64_t>(b.start));
    w.u64(b.total);
    w.u8(b.severity_max);
    encode_type_counts(w, b.by_type);
  }
  subjects_.encode(w);
  protocols_.encode(w);
}

std::optional<RollupStore> RollupStore::decode(pkt::BufferReader& r) {
  const SimTime width = static_cast<SimTime>(r.u64());
  if (!r.ok() || width <= 0) return std::nullopt;
  RollupStore out(width, 0);
  out.total_ = r.u64();
  out.pruned_ = r.u64();
  const std::uint32_t bucket_count = r.u32();
  if (!r.ok() || bucket_count > r.remaining() / 18) return std::nullopt;
  for (std::uint32_t i = 0; i < bucket_count; ++i) {
    Bucket b;
    b.start = static_cast<SimTime>(r.u64());
    b.total = r.u64();
    b.severity_max = r.u8();
    if (!decode_type_counts(r, b.by_type)) return std::nullopt;
    if (!out.buckets_.empty() && b.start <= out.buckets_.back().start) return std::nullopt;
    out.buckets_.push_back(b);
  }
  auto subjects = TopK::decode(r);
  auto protocols = TopK::decode(r);
  if (!subjects || !protocols || !r.ok()) return std::nullopt;
  out.subjects_ = std::move(*subjects);
  out.protocols_ = std::move(*protocols);
  return out;
}

}  // namespace livesec::mon
