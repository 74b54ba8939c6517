#include "monitor/event_pipeline.h"

#include <algorithm>
#include <sstream>

#include "packet/buffer.h"

namespace livesec::mon {

namespace {
constexpr std::uint32_t kPipelineMagic = 0x4C504950;  // "LPIP"
// v2: typed rows and Top-K keys (v1 stored subject/detail strings).
constexpr std::uint8_t kPipelineVersion = 2;
constexpr std::uint32_t kRowsMagic = 0x4C424154;  // "LBAT"
// v2 carried the id range (min, max) in the header so the replication hot
// path (the snapshot fold) can size a batch without walking its rows; v3
// rows are typed (subject/detail kinds and varint values) instead of
// carrying subject/detail strings.
constexpr std::uint8_t kRowsVersion = 3;
/// Header: u32 magic, u8 version, u32 count, u64 id_min, u64 id_max.
constexpr std::size_t kRowsCountOffset = 5;
constexpr std::size_t kRowsIdMinOffset = 9;
constexpr std::size_t kRowsIdMaxOffset = 17;
/// Fixed row bytes: id(8) + time(8) + type(1) + subject kind(1) + detail
/// kind(1) + severity(1) + flow key.
constexpr std::size_t kRowFixedBytes = 20 + pkt::FlowKey::kWireBytes;
/// Minimum wire bytes per row: the fixed part plus six one-byte varints
/// (subject value, detail a/b, dpid, se_id, text length).
constexpr std::size_t kRowWireBytes = kRowFixedBytes + 6;

void encode_row(pkt::BufferWriter& w, const NetworkEvent& e) {
  // This path runs once per event on the active's replication tap, so the
  // whole row is sized first and written through one extend (a single
  // growth check) instead of a writer call per field.
  const std::size_t need = kRowFixedBytes + pkt::varint_size(e.subject.value) +
                           pkt::varint_size(e.detail.a) + pkt::varint_size(e.detail.b) +
                           pkt::varint_size(e.dpid) + pkt::varint_size(e.se_id) +
                           pkt::varint_size(e.text.size()) + e.text.size();
  std::uint8_t* p = w.extend(need);
  pkt::store_u64(p, e.id);
  pkt::store_u64(p + 8, static_cast<std::uint64_t>(e.time));
  p[16] = static_cast<std::uint8_t>(e.type);
  p[17] = static_cast<std::uint8_t>(e.subject.kind);
  p += 18;
  p += pkt::store_varint(p, e.subject.value);
  *p++ = static_cast<std::uint8_t>(e.detail.kind);
  p += pkt::store_varint(p, e.detail.a);
  p += pkt::store_varint(p, e.detail.b);
  p += pkt::store_varint(p, e.dpid);
  p += pkt::store_varint(p, e.se_id);
  *p++ = e.severity;
  p += pkt::store_varint(p, e.text.size());
  std::copy(e.text.begin(), e.text.end(), reinterpret_cast<char*>(p));
  e.flow.encode_to(p + e.text.size());
}

/// Decodes one row; the caller checks r.ok() and well_formed().
NetworkEvent decode_row(pkt::BufferReader& r) {
  NetworkEvent e;
  e.id = r.u64();
  e.time = static_cast<SimTime>(r.u64());
  e.type = static_cast<EventType>(r.u8());
  e.subject.kind = static_cast<SubjectKind>(r.u8());
  e.subject.value = r.varint();
  e.detail.kind = static_cast<DetailKind>(r.u8());
  e.detail.a = r.varint();
  e.detail.b = r.varint();
  e.dpid = r.varint();
  e.se_id = r.varint();
  e.severity = r.u8();
  const std::uint64_t text_bytes = r.varint();
  if (text_bytes > r.remaining()) return e;  // truncated: the caller sees !ok()
  e.text = r.string(static_cast<std::size_t>(text_bytes));
  e.flow = pkt::FlowKey::decode(r);
  return e;
}

/// Decodes a row-batch blob row by row, handing each row to `on_row`. False
/// when the blob is corrupt, of another version, or its rows disagree with
/// its header; `on_row` may then have seen a prefix of the rows.
template <typename OnRow>
bool for_each_row(std::span<const std::uint8_t> blob, OnRow&& on_row) {
  pkt::BufferReader r(blob);
  if (r.u32() != kRowsMagic || r.u8() != kRowsVersion) return false;
  if (!r.ok()) return false;
  const std::uint32_t count = r.u32();
  const std::uint64_t id_min = r.u64();
  const std::uint64_t id_max = r.u64();
  if (!r.ok() || count > r.remaining() / kRowWireBytes) return false;
  std::uint64_t seen_min = 0;
  std::uint64_t seen_max = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    NetworkEvent row = decode_row(r);
    if (!r.ok() || !row.well_formed()) return false;
    seen_min = (i == 0) ? row.id : std::min(seen_min, row.id);
    seen_max = std::max(seen_max, row.id);
    on_row(std::move(row));
  }
  // The header is trusted by peek_rows consumers — reject blobs whose rows
  // disagree with it.
  return r.remaining() == 0 && seen_min == id_min && seen_max == id_max;
}
}  // namespace

void RowBatchEncoder::write_header() {
  writer_.u32(kRowsMagic);
  writer_.u8(kRowsVersion);
  writer_.u32(0);  // row count, patched in take()
  writer_.u64(0);  // id_min, patched in take()
  writer_.u64(0);  // id_max, patched in take()
}

void RowBatchEncoder::add(const NetworkEvent& event) {
  if (rows_ == 0) {
    write_header();
    id_min_ = event.id;
    id_max_ = event.id;
  } else {
    id_min_ = std::min(id_min_, event.id);
    id_max_ = std::max(id_max_, event.id);
  }
  encode_row(writer_, event);
  ++rows_;
}

std::vector<std::uint8_t> RowBatchEncoder::take() {
  if (rows_ == 0) write_header();  // an empty batch is a bare header
  // Copy out at exact size and keep the writer's capacity: steady-state the
  // encoder never re-grows, where moving the vector out would restart the
  // doubling climb from zero on every batch.
  std::vector<std::uint8_t> out(writer_.data().begin(), writer_.data().end());
  writer_.clear();
  pkt::patch_u32(out, kRowsCountOffset, rows_);
  pkt::patch_u64(out, kRowsIdMinOffset, id_min_);
  pkt::patch_u64(out, kRowsIdMaxOffset, id_max_);
  rows_ = 0;
  id_min_ = 0;
  id_max_ = 0;
  return out;
}

void RowBatchEncoder::clear() {
  writer_ = pkt::BufferWriter{};
  rows_ = 0;
  id_min_ = 0;
  id_max_ = 0;
}

EventPipeline::Config EventPipeline::config_for_capacity(std::size_t capacity) {
  Config config;
  if (capacity == 0) return config;  // unbounded full fidelity
  config.segment_rows = std::clamp<std::size_t>(capacity / 4, 16, 4096);
  config.staging_rows = std::min<std::size_t>(config.staging_rows, config.segment_rows);
  config.full_segments = std::max<std::size_t>(1, capacity / config.segment_rows);
  return config;
}

EventPipeline::EventPipeline(Config config)
    : config_(config),
      columns_(config.segment_rows),
      rollups_(config.rollup_bucket, config.topk_capacity) {
  config_.segment_rows = std::max<std::size_t>(config_.segment_rows, 1);
  config_.staging_rows = std::max<std::size_t>(config_.staging_rows, 1);
}

void EventPipeline::stage(NetworkEvent&& event) {
  // Reserved on the first row, not at construction: a pipeline that never
  // sees an event holds no staging buffer.
  if (staging_.capacity() == 0) staging_.reserve(config_.staging_rows);
  // Drains after a row whose id is a multiple of staging_rows, which for
  // ids 1, 2, 3... is every staging_rows rows. A replica whose rows start
  // mid-run thus drains, and seals, in step with the store it copies.
  const bool run_end = event.id % config_.staging_rows == 0;
  staging_.push_back(std::move(event));
  if (run_end || staging_.size() >= config_.staging_rows) drain_staging();
}

std::uint64_t EventPipeline::ingest(NetworkEvent&& event) {
  if (event.time < last_time_) {
    event.time = last_time_;
    ++counters_.clamped;
  }
  last_time_ = event.time;
  event.id = next_id_++;
  ++counters_.appended;
  rollups_.ingest(event);
  if (observer_) observer_(event);
  const std::uint64_t id = event.id;
  stage(std::move(event));
  return id;
}

std::uint64_t EventPipeline::append(NetworkEvent event) { return ingest(std::move(event)); }

std::size_t EventPipeline::append_batch(std::vector<NetworkEvent> rows) {
  if (rows.empty()) return 0;
  ++counters_.batches;
  for (NetworkEvent& row : rows) ingest(std::move(row));
  return rows.size();
}

void EventPipeline::drain_staging() {
  const std::size_t sealed_before = columns_.sealed_segments();
  for (const NetworkEvent& row : staging_) columns_.append(row);
  staging_.clear();
  const std::size_t sealed = columns_.sealed_segments() - sealed_before;
  if (sealed == 0) return;
  counters_.segments_sealed += sealed;
  enforce_retention();
}

void EventPipeline::enforce_retention() {
  if (config_.full_segments == 0) return;
  while (columns_.sealed_segments() > config_.full_segments) {
    summaries_.push_back(summarize(columns_.pop_oldest_sealed()));
    ++counters_.segments_downsampled;
  }
  while (summaries_.size() > config_.summary_segments) {
    summaries_.pop_front();
    ++counters_.segments_evicted;
    // The rollup horizon follows the oldest surviving data.
    const SimTime horizon = summaries_.empty()
                                ? (columns_.sealed_segments() > 0
                                       ? columns_.sealed().front().zone().time_min
                                       : last_time_)
                                : summaries_.front().zone.time_min;
    rollups_.prune_before(horizon);
  }
}

EventPipeline::SegmentSummary EventPipeline::summarize(const Segment& segment) const {
  SegmentSummary summary;
  summary.zone = segment.zone();
  for (std::uint8_t type : segment.types()) {
    ++summary.by_type[type & (kEventTypeSlots - 1)];
  }
  return summary;
}

// --- queries -----------------------------------------------------------------

const NetworkEvent* EventPipeline::by_id(std::uint64_t id) const {
  for (auto it = staging_.rbegin(); it != staging_.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return columns_.find_id(id);
}

std::vector<NetworkEvent> EventPipeline::query_range(SimTime from, SimTime to) const {
  std::vector<NetworkEvent> out;
  replay(from, to, [&out](const NetworkEvent& e) { out.push_back(e); });
  return out;
}

std::vector<NetworkEvent> EventPipeline::query_type(EventType type, SimTime from,
                                                    SimTime to) const {
  std::vector<NetworkEvent> out;
  columns_.scan_type(type, from, to, [&out](const NetworkEvent& e) { out.push_back(e); });
  for (const NetworkEvent& e : staging_) {
    if (e.type == type && e.time >= from && e.time < to) out.push_back(e);
  }
  return out;
}

std::vector<NetworkEvent> EventPipeline::query_subject(const std::string& subject,
                                                       std::size_t limit) const {
  const SubjectKey key = SubjectKey::parse(subject);
  std::vector<NetworkEvent> out;
  for (auto it = staging_.rbegin(); it != staging_.rend() && out.size() < limit; ++it) {
    if (SubjectKey::of(*it) == key) out.push_back(*it);
  }
  if (out.size() < limit) {
    columns_.scan_subject(key, limit - out.size(),
                          [&out](const NetworkEvent& e) { out.push_back(e); });
  }
  return out;
}

std::size_t EventPipeline::replay(SimTime from, SimTime to,
                                  const std::function<void(const NetworkEvent&)>& visit) const {
  std::size_t count = columns_.scan_range(from, to, visit);
  for (const NetworkEvent& e : staging_) {
    if (e.time >= from && e.time < to) {
      visit(e);
      ++count;
    }
  }
  return count;
}

std::vector<std::pair<EventType, std::size_t>> EventPipeline::histogram() const {
  std::array<std::uint64_t, kEventTypeSlots> totals{};
  for (const RollupStore::Bucket& bucket : rollups_.buckets()) {
    for (std::size_t slot = 0; slot < totals.size(); ++slot) {
      totals[slot] += bucket.by_type[slot];
    }
  }
  std::vector<std::pair<EventType, std::size_t>> out;
  for (std::size_t slot = 0; slot < totals.size(); ++slot) {
    if (totals[slot] > 0) {
      out.emplace_back(static_cast<EventType>(slot), static_cast<std::size_t>(totals[slot]));
    }
  }
  return out;
}

std::string EventPipeline::to_json(SimTime from, SimTime to) const {
  std::ostringstream out;
  out << "[";
  bool first = true;
  replay(from, to, [&out, &first](const NetworkEvent& e) {
    if (!first) out << ",";
    out << e.to_json();
    first = false;
  });
  out << "]";
  return out.str();
}

std::size_t EventPipeline::memory_bytes() const {
  std::size_t staging_bytes = staging_.capacity() * sizeof(NetworkEvent);
  for (const NetworkEvent& e : staging_) staging_bytes += e.text.size();
  const std::size_t rollup_bytes =
      rollups_.bucket_count() * sizeof(RollupStore::Bucket) +
      (rollups_.subjects().entries() + rollups_.protocols().entries()) * 64;
  return columns_.memory_bytes() + staging_bytes + rollup_bytes +
         summaries_.size() * sizeof(SegmentSummary) +
         restore_buffer_.capacity() * sizeof(NetworkEvent);
}

// --- persistence -------------------------------------------------------------

std::vector<std::uint8_t> EventPipeline::encode_rows(std::span<const NetworkEvent> rows) {
  RowBatchEncoder encoder;
  for (const NetworkEvent& e : rows) encoder.add(e);
  return encoder.take();
}

std::optional<std::uint32_t> EventPipeline::peek_rows(std::span<const std::uint8_t> blob) {
  // O(1): the v2 header carries the row count and id range, so the hot path
  // (the snapshot fold) never walks the rows. The size check below is a
  // lower bound (rows have variable-length strings); the exact
  // byte-accounting happens in decode_rows when the blob is consumed.
  pkt::BufferReader r(blob);
  if (r.u32() != kRowsMagic || r.u8() != kRowsVersion) return std::nullopt;
  if (!r.ok()) return std::nullopt;
  const std::uint32_t count = r.u32();
  const std::uint64_t id_min = r.u64();
  const std::uint64_t id_max = r.u64();
  if (!r.ok() || count > r.remaining() / kRowWireBytes) return std::nullopt;
  if (count == 0 && (id_min != 0 || id_max != 0 || r.remaining() != 0)) return std::nullopt;
  if (count != 0 && id_min > id_max) return std::nullopt;
  return count;
}

std::optional<std::vector<NetworkEvent>> EventPipeline::decode_rows(
    std::span<const std::uint8_t> blob) {
  std::vector<NetworkEvent> rows;
  rows.reserve(peek_rows(blob).value_or(0));
  if (!for_each_row(blob, [&rows](NetworkEvent&& row) { rows.push_back(std::move(row)); })) {
    return std::nullopt;
  }
  return rows;
}

std::vector<std::vector<std::uint8_t>> EventPipeline::export_segment_blobs() const {
  std::vector<std::vector<std::uint8_t>> blobs;
  blobs.reserve(columns_.sealed_segments());
  for (const Segment& seg : columns_.sealed()) blobs.push_back(seg.encode_blob());
  return blobs;
}

std::vector<std::vector<std::uint8_t>> EventPipeline::export_row_batches() const {
  std::vector<std::vector<std::uint8_t>> batches;
  batches.reserve(columns_.sealed_segments() + 1);
  for (const Segment& seg : columns_.sealed()) {
    RowBatchEncoder encoder;
    for (std::size_t i = 0; i < seg.rows(); ++i) encoder.add(seg.row(i));
    batches.push_back(encoder.take());
  }
  if (std::vector<std::uint8_t> open = export_open_rows(); !open.empty()) {
    batches.push_back(std::move(open));
  }
  return batches;
}

std::vector<std::uint8_t> EventPipeline::export_open_rows() const {
  std::vector<NetworkEvent> rows;
  const Segment& open = columns_.open_segment();
  rows.reserve(open.rows() + staging_.size());
  for (std::size_t i = 0; i < open.rows(); ++i) rows.push_back(open.row(i));
  rows.insert(rows.end(), staging_.begin(), staging_.end());
  if (rows.empty()) return {};
  return encode_rows(rows);
}

void EventPipeline::ingest_restored(NetworkEvent&& event) {
  // Restored rows keep their id; times were clamped on the original active,
  // but clamp again so a crafted blob cannot break the time order.
  if (event.time < last_time_) {
    event.time = last_time_;
    ++counters_.clamped;
  }
  last_time_ = event.time;
  next_id_ = std::max(next_id_, event.id + 1);
  ++counters_.appended;
  ++counters_.restored_rows;
  rollups_.ingest(event);
  stage(std::move(event));
}

bool EventPipeline::restore_rows(std::span<const std::uint8_t> blob) {
  // Decode the whole batch once, into a buffer kept across batches, and
  // ingest it only when every row is valid: a corrupt batch ingests no row.
  restore_buffer_.clear();
  const bool valid = for_each_row(
      blob, [this](NetworkEvent&& row) { restore_buffer_.push_back(std::move(row)); });
  if (valid) {
    for (NetworkEvent& row : restore_buffer_) {
      if (row.id < next_id_) {
        ++counters_.restore_skipped;  // snapshot/log overlap: already applied
        continue;
      }
      ingest_restored(std::move(row));
    }
  }
  restore_buffer_.clear();
  return valid;
}

std::vector<std::uint8_t> EventPipeline::serialize() const {
  pkt::BufferWriter w;
  w.u32(kPipelineMagic);
  w.u8(kPipelineVersion);
  w.u64(next_id_);
  w.u64(static_cast<std::uint64_t>(last_time_));
  w.u64(counters_.clamped);
  w.u32(static_cast<std::uint32_t>(summaries_.size()));
  for (const SegmentSummary& s : summaries_) {
    w.u64(static_cast<std::uint64_t>(s.zone.time_min));
    w.u64(static_cast<std::uint64_t>(s.zone.time_max));
    w.u64(s.zone.id_min);
    w.u64(s.zone.id_max);
    w.u32(s.zone.type_mask);
    w.u8(s.zone.severity_max);
    w.u32(s.zone.rows);
    encode_type_counts(w, s.by_type);
  }
  const auto blobs = export_segment_blobs();
  w.u32(static_cast<std::uint32_t>(blobs.size()));
  for (const auto& blob : blobs) {
    w.u32(static_cast<std::uint32_t>(blob.size()));
    w.bytes(blob);
  }
  // Open + staging rows, oldest first, as one row batch.
  const std::vector<std::uint8_t> open_rows = export_open_rows();
  w.u32(static_cast<std::uint32_t>(open_rows.size()));
  w.bytes(open_rows);
  rollups_.encode(w);
  return w.take();
}

std::optional<EventPipeline> EventPipeline::deserialize(std::span<const std::uint8_t> blob,
                                                        Config config) {
  pkt::BufferReader r(blob);
  if (r.u32() != kPipelineMagic || r.u8() != kPipelineVersion) return std::nullopt;
  if (!r.ok()) return std::nullopt;
  EventPipeline out(config);
  const std::uint64_t next_id = r.u64();
  const SimTime last_time = static_cast<SimTime>(r.u64());
  const std::uint64_t clamped = r.u64();
  const std::uint32_t summary_count = r.u32();
  if (!r.ok() || summary_count > r.remaining() / 43) return std::nullopt;
  for (std::uint32_t i = 0; i < summary_count; ++i) {
    SegmentSummary s;
    s.zone.time_min = static_cast<SimTime>(r.u64());
    s.zone.time_max = static_cast<SimTime>(r.u64());
    s.zone.id_min = r.u64();
    s.zone.id_max = r.u64();
    s.zone.type_mask = r.u32();
    s.zone.severity_max = r.u8();
    s.zone.rows = r.u32();
    if (!decode_type_counts(r, s.by_type)) return std::nullopt;
    out.summaries_.push_back(s);
  }
  const std::uint32_t segment_count = r.u32();
  if (!r.ok() || segment_count > r.remaining() / 4) return std::nullopt;
  std::uint64_t prev_id_max = 0;
  for (std::uint32_t i = 0; i < segment_count; ++i) {
    const std::uint32_t blob_len = r.u32();
    if (!r.ok() || blob_len > r.remaining()) return std::nullopt;
    auto segment = Segment::decode_blob(r.bytes(blob_len));
    if (!segment) return std::nullopt;
    if (segment->empty() || (i > 0 && segment->zone().id_min <= prev_id_max)) {
      return std::nullopt;  // segments must hold disjoint ascending id runs
    }
    prev_id_max = segment->zone().id_max;
    out.columns_.rows_ += segment->rows();
    out.columns_.sealed_.push_back(std::move(*segment));
  }
  const std::uint32_t open_bytes = r.u32();
  if (!r.ok() || open_bytes > r.remaining()) return std::nullopt;
  const auto open_rows = open_bytes == 0 ? std::optional(std::vector<NetworkEvent>{})
                                          : decode_rows(r.bytes(open_bytes));
  if (!open_rows) return std::nullopt;
  SimTime prev_time = out.columns_.sealed_segments() > 0
                          ? out.columns_.sealed().back().zone().time_max
                          : 0;
  for (const NetworkEvent& e : *open_rows) {
    if (e.id <= prev_id_max || e.time < prev_time) return std::nullopt;
    prev_id_max = e.id;
    prev_time = e.time;
    out.columns_.append(e);
  }
  auto rollups = RollupStore::decode(r);
  if (!rollups || !r.ok() || r.remaining() != 0) return std::nullopt;
  out.rollups_ = std::move(*rollups);
  out.next_id_ = std::max(next_id, prev_id_max + 1);
  out.last_time_ = last_time;
  out.counters_.clamped = clamped;
  out.counters_.appended = out.rollups_.total();
  out.enforce_retention();
  return out;
}

}  // namespace livesec::mon
