#include "monitor/column_store.h"

#include <algorithm>

namespace livesec::mon {

namespace {
constexpr std::uint32_t kSegmentMagic = 0x4C534547;  // "LSEG"
// v2: typed subject/detail columns (varint-packed) and a text dictionary
// for the free-text rows only; v1 dictionary-encoded every subject/detail.
constexpr std::uint8_t kSegmentVersion = 2;
/// Minimum wire bytes per row: id(8) + time(8) + type(1) + subject kind(1) +
/// value(>=1) + detail kind(1) + a(>=1) + b(>=1) + dpid(>=1) + se_id(>=1) +
/// severity(1).
constexpr std::size_t kRowWireBytes = 25;

/// Finds row `row`'s entry in a sparse (row, value) column sorted by row.
template <typename T>
const T* sparse_at(const std::vector<std::pair<std::uint32_t, T>>& column, std::size_t row) {
  auto it = std::lower_bound(column.begin(), column.end(), static_cast<std::uint32_t>(row),
                             [](const auto& entry, std::uint32_t v) { return entry.first < v; });
  return (it != column.end() && it->first == row) ? &it->second : nullptr;
}

/// Checks a decoded sparse column: rows in range and strictly increasing.
template <typename T>
bool sparse_rows_valid(const std::vector<std::pair<std::uint32_t, T>>& column,
                       std::uint32_t rows) {
  for (std::size_t i = 0; i < column.size(); ++i) {
    const std::uint32_t row = column[i].first;
    if (row >= rows || (i > 0 && row <= column[i - 1].first)) return false;
  }
  return true;
}
}  // namespace

Segment::Segment(std::size_t expected_rows) {
  if (expected_rows > 0) {
    ids_.reserve(expected_rows);
    times_.reserve(expected_rows);
    types_.reserve(expected_rows);
    subject_kinds_.reserve(expected_rows);
    subject_values_.reserve(expected_rows);
    detail_kinds_.reserve(expected_rows);
    detail_a_.reserve(expected_rows);
    detail_b_.reserve(expected_rows);
    dpids_.reserve(expected_rows);
    se_ids_.reserve(expected_rows);
    severities_.reserve(expected_rows);
  }
}

std::uint32_t Segment::intern(const std::string& s) {
  const auto [it, fresh] =
      dict_index_.try_emplace(s, static_cast<std::uint32_t>(dict_.size()));
  if (fresh) {
    dict_.push_back(s);
    dict_bytes_ += s.size();
  }
  return it->second;
}

void Segment::append(const NetworkEvent& event) {
  const std::uint32_t row = static_cast<std::uint32_t>(ids_.size());
  ids_.push_back(event.id);
  times_.push_back(event.time);
  types_.push_back(static_cast<std::uint8_t>(event.type));
  subject_kinds_.push_back(static_cast<std::uint8_t>(event.subject.kind));
  subject_values_.push_back(event.subject.value);
  detail_kinds_.push_back(static_cast<std::uint8_t>(event.detail.kind));
  detail_a_.push_back(event.detail.a);
  detail_b_.push_back(event.detail.b);
  dpids_.push_back(event.dpid);
  se_ids_.push_back(event.se_id);
  severities_.push_back(event.severity);
  if (event.flow != pkt::FlowKey{}) flows_.emplace_back(row, event.flow);
  if (!event.text.empty()) texts_.emplace_back(row, intern(event.text));

  if (zone_.rows == 0) {
    zone_.time_min = event.time;
    zone_.id_min = event.id;
  }
  zone_.time_max = event.time;
  zone_.id_max = event.id;
  zone_.type_mask |= 1u << (static_cast<std::uint8_t>(event.type) & 31u);
  zone_.severity_max = std::max(zone_.severity_max, event.severity);
  ++zone_.rows;
}

void Segment::seal() {
  sealed_ = true;
  std::unordered_map<std::string, std::uint32_t>().swap(dict_index_);
}

const std::string* Segment::text_at(std::size_t i) const {
  const std::uint32_t* ref = sparse_at(texts_, i);
  return ref != nullptr ? &dict_[*ref] : nullptr;
}

NetworkEvent Segment::row(std::size_t i) const {
  NetworkEvent e;
  e.id = ids_[i];
  e.time = times_[i];
  e.type = static_cast<EventType>(types_[i]);
  e.subject = Subject{static_cast<SubjectKind>(subject_kinds_[i]), subject_values_[i]};
  e.detail = Detail{static_cast<DetailKind>(detail_kinds_[i]), detail_a_[i], detail_b_[i]};
  e.dpid = dpids_[i];
  e.se_id = se_ids_[i];
  e.severity = severities_[i];
  if (const pkt::FlowKey* flow = sparse_at(flows_, i)) e.flow = *flow;
  if (const std::string* text = text_at(i)) e.text = *text;
  return e;
}

std::size_t Segment::lower_bound_time(SimTime t) const {
  auto it = std::lower_bound(times_.begin(), times_.end(), t);
  return static_cast<std::size_t>(it - times_.begin());
}

std::optional<std::size_t> Segment::find_id(std::uint64_t id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return std::nullopt;
  return static_cast<std::size_t>(it - ids_.begin());
}

bool Segment::may_contain_subject(const SubjectKey& subject) const {
  if (subject.kind != SubjectKind::kText) return true;
  return std::any_of(dict_.begin(), dict_.end(),
                     [&](const std::string& s) { return s.starts_with(subject.text); });
}

bool Segment::subject_matches(std::size_t i, const SubjectKey& subject) const {
  if (subject_kinds_[i] != static_cast<std::uint8_t>(subject.kind)) return false;
  if (subject.kind != SubjectKind::kText) return subject_values_[i] == subject.value;
  const std::string* text = text_at(i);
  return subject_values_[i] == subject.text.size() && text != nullptr &&
         text->starts_with(subject.text);
}

std::size_t Segment::memory_bytes() const {
  std::size_t bytes = ids_.capacity() * sizeof(std::uint64_t) +
                      times_.capacity() * sizeof(SimTime) + types_.capacity() +
                      subject_kinds_.capacity() +
                      subject_values_.capacity() * sizeof(std::uint64_t) +
                      detail_kinds_.capacity() + detail_a_.capacity() * sizeof(std::uint64_t) +
                      detail_b_.capacity() * sizeof(std::uint64_t) +
                      dpids_.capacity() * sizeof(std::uint64_t) +
                      se_ids_.capacity() * sizeof(std::uint64_t) + severities_.capacity() +
                      flows_.capacity() * sizeof(flows_[0]) +
                      texts_.capacity() * sizeof(texts_[0]) +
                      dict_.capacity() * sizeof(std::string) + dict_bytes_ +
                      dict_index_.size() * (sizeof(std::string) + 32);
  return bytes;
}

void Segment::encode(pkt::BufferWriter& w) const {
  w.u32(kSegmentMagic);
  w.u8(kSegmentVersion);
  w.u32(static_cast<std::uint32_t>(rows()));
  w.u64(static_cast<std::uint64_t>(zone_.time_min));
  w.u64(static_cast<std::uint64_t>(zone_.time_max));
  w.u64(zone_.id_min);
  w.u64(zone_.id_max);
  w.u32(zone_.type_mask);
  w.u8(zone_.severity_max);
  w.u32(static_cast<std::uint32_t>(dict_.size()));
  // Sealing replicates the segment on the live ingest path, so every column
  // is written in bulk (one extend per column, raw stores into it) instead
  // of one writer call per element — tens of thousands of growth-checked
  // appends per seal otherwise.
  {
    std::size_t dict_bytes = 2 * dict_.size();
    for (const std::string& s : dict_) dict_bytes += s.size();
    std::uint8_t* p = w.extend(dict_bytes);
    for (const std::string& s : dict_) {
      pkt::store_u16(p, static_cast<std::uint16_t>(s.size()));
      std::copy(s.begin(), s.end(), reinterpret_cast<char*>(p + 2));
      p += 2 + s.size();
    }
  }
  const auto u64_column = [&w](std::span<const std::uint64_t> vs) {
    std::uint8_t* p = w.extend(vs.size() * 8);
    for (std::uint64_t v : vs) {
      pkt::store_u64(p, v);
      p += 8;
    }
  };
  // Typed values are mostly small (SE counts, packet counters, dpids), so
  // they are varint-packed: one sizing pass, then one extend.
  const auto varint_column = [&w](std::span<const std::uint64_t> vs) {
    std::size_t bytes = 0;
    for (std::uint64_t v : vs) bytes += pkt::varint_size(v);
    std::uint8_t* p = w.extend(bytes);
    for (std::uint64_t v : vs) p += pkt::store_varint(p, v);
  };
  u64_column(ids_);
  {
    std::uint8_t* p = w.extend(times_.size() * 8);
    for (SimTime v : times_) {
      pkt::store_u64(p, static_cast<std::uint64_t>(v));
      p += 8;
    }
  }
  w.bytes(types_);
  w.bytes(subject_kinds_);
  varint_column(subject_values_);
  w.bytes(detail_kinds_);
  varint_column(detail_a_);
  varint_column(detail_b_);
  varint_column(dpids_);
  varint_column(se_ids_);
  w.bytes(severities_);
  w.u32(static_cast<std::uint32_t>(flows_.size()));
  {
    std::uint8_t* p = w.extend(flows_.size() * (4 + pkt::FlowKey::kWireBytes));
    for (const auto& [row, key] : flows_) {
      pkt::store_u32(p, row);
      key.encode_to(p + 4);
      p += 4 + pkt::FlowKey::kWireBytes;
    }
  }
  w.u32(static_cast<std::uint32_t>(texts_.size()));
  for (const auto& [row, ref] : texts_) {
    w.u32(row);
    w.u32(ref);
  }
}

std::vector<std::uint8_t> Segment::encode_blob() const {
  pkt::BufferWriter w;
  encode(w);
  return w.take();
}

std::optional<Segment> Segment::decode(pkt::BufferReader& r) {
  if (r.u32() != kSegmentMagic || r.u8() != kSegmentVersion) return std::nullopt;
  if (!r.ok()) return std::nullopt;
  const std::uint32_t rows = r.u32();
  SegmentZone zone;
  zone.time_min = static_cast<SimTime>(r.u64());
  zone.time_max = static_cast<SimTime>(r.u64());
  zone.id_min = r.u64();
  zone.id_max = r.u64();
  zone.type_mask = r.u32();
  zone.severity_max = r.u8();
  zone.rows = rows;
  const std::uint32_t dict_count = r.u32();
  if (!r.ok()) return std::nullopt;
  // Guard count prefixes against the bytes actually present before any
  // reserve: each dictionary entry needs >= 2 bytes, each row >= 25.
  if (dict_count > r.remaining() / 2 || rows > r.remaining() / kRowWireBytes) {
    return std::nullopt;
  }
  Segment seg(rows);
  seg.zone_ = zone;
  seg.dict_.reserve(dict_count);
  for (std::uint32_t i = 0; i < dict_count; ++i) {
    seg.dict_.push_back(r.length_prefixed_string());
    seg.dict_bytes_ += seg.dict_.back().size();
    if (!r.ok()) return std::nullopt;
  }
  for (std::uint32_t i = 0; i < rows; ++i) seg.ids_.push_back(r.u64());
  for (std::uint32_t i = 0; i < rows; ++i) seg.times_.push_back(static_cast<SimTime>(r.u64()));
  for (std::uint32_t i = 0; i < rows; ++i) seg.types_.push_back(r.u8());
  for (std::uint32_t i = 0; i < rows; ++i) seg.subject_kinds_.push_back(r.u8());
  for (std::uint32_t i = 0; i < rows; ++i) seg.subject_values_.push_back(r.varint());
  for (std::uint32_t i = 0; i < rows; ++i) seg.detail_kinds_.push_back(r.u8());
  for (std::uint32_t i = 0; i < rows; ++i) seg.detail_a_.push_back(r.varint());
  for (std::uint32_t i = 0; i < rows; ++i) seg.detail_b_.push_back(r.varint());
  for (std::uint32_t i = 0; i < rows; ++i) seg.dpids_.push_back(r.varint());
  for (std::uint32_t i = 0; i < rows; ++i) seg.se_ids_.push_back(r.varint());
  for (std::uint32_t i = 0; i < rows; ++i) seg.severities_.push_back(r.u8());
  const std::uint32_t flow_count = r.u32();
  if (!r.ok() || flow_count > r.remaining() / (4 + pkt::FlowKey::kWireBytes)) return std::nullopt;
  seg.flows_.reserve(flow_count);
  for (std::uint32_t i = 0; i < flow_count; ++i) {
    const std::uint32_t row = r.u32();
    seg.flows_.emplace_back(row, pkt::FlowKey::decode(r));
  }
  const std::uint32_t text_count = r.u32();
  if (!r.ok() || text_count > r.remaining() / 8) return std::nullopt;
  seg.texts_.reserve(text_count);
  for (std::uint32_t i = 0; i < text_count; ++i) {
    const std::uint32_t row = r.u32();
    const std::uint32_t ref = r.u32();
    if (ref >= dict_count) return std::nullopt;
    seg.texts_.emplace_back(row, ref);
  }
  if (!r.ok()) return std::nullopt;
  // Structural validation: dangling references, malformed rows or broken
  // orderings mean the blob is corrupt even though every read stayed in
  // bounds.
  if (!sparse_rows_valid(seg.flows_, rows) || !sparse_rows_valid(seg.texts_, rows)) {
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < rows; ++i) {
    if (!seg.row(i).well_formed()) return std::nullopt;
  }
  for (std::size_t i = 1; i < seg.times_.size(); ++i) {
    if (seg.times_[i] < seg.times_[i - 1]) return std::nullopt;
    if (seg.ids_[i] <= seg.ids_[i - 1]) return std::nullopt;
  }
  if (rows > 0 &&
      (seg.ids_.front() != zone.id_min || seg.ids_.back() != zone.id_max ||
       seg.times_.front() != zone.time_min || seg.times_.back() != zone.time_max)) {
    return std::nullopt;
  }
  seg.sealed_ = true;
  return seg;
}

std::optional<Segment> Segment::decode_blob(std::span<const std::uint8_t> blob) {
  pkt::BufferReader r(blob);
  auto seg = decode(r);
  if (!seg || r.remaining() != 0) return std::nullopt;
  return seg;
}

// --- ColumnStore -------------------------------------------------------------

void ColumnStore::seal_open() {
  open_.seal();
  sealed_.push_back(std::move(open_));
  open_ = Segment(segment_rows_);
}

bool ColumnStore::append(const NetworkEvent& event) {
  bool sealed = false;
  // A row past the open block closes the open segment first (a gap in the
  // ids, as where a bootstrapped replica's retained rows begin).
  if (!open_.empty() && event.id > open_last_id_) {
    seal_open();
    sealed = true;
  }
  if (open_.empty()) {
    open_last_id_ = (event.id / segment_rows_ + (event.id % segment_rows_ != 0 ? 1 : 0)) *
                    segment_rows_;
  }
  open_.append(event);
  ++rows_;
  if (event.id == open_last_id_) {
    seal_open();
    sealed = true;
  }
  return sealed;
}

Segment ColumnStore::pop_oldest_sealed() {
  Segment oldest = std::move(sealed_.front());
  sealed_.pop_front();
  rows_ -= oldest.rows();
  return oldest;
}

std::size_t ColumnStore::scan_range(SimTime from, SimTime to,
                                    const std::function<void(const NetworkEvent&)>& visit) const {
  std::size_t count = 0;
  const auto scan = [&](const Segment& seg) {
    if (!seg.zone().overlaps(from, to)) return;
    for (std::size_t i = seg.lower_bound_time(from); i < seg.rows(); ++i) {
      if (seg.times()[i] >= to) break;
      visit(seg.row(i));
      ++count;
    }
  };
  for (const Segment& seg : sealed_) scan(seg);
  scan(open_);
  return count;
}

std::size_t ColumnStore::scan_type(EventType type, SimTime from, SimTime to,
                                   const std::function<void(const NetworkEvent&)>& visit) const {
  std::size_t count = 0;
  const std::uint8_t raw = static_cast<std::uint8_t>(type);
  const auto scan = [&](const Segment& seg) {
    if (!seg.zone().overlaps(from, to) || !seg.zone().may_contain(type)) return;
    for (std::size_t i = seg.lower_bound_time(from); i < seg.rows(); ++i) {
      if (seg.times()[i] >= to) break;
      if (seg.types()[i] != raw) continue;
      visit(seg.row(i));
      ++count;
    }
  };
  for (const Segment& seg : sealed_) scan(seg);
  scan(open_);
  return count;
}

void ColumnStore::scan_subject(const SubjectKey& subject, std::size_t limit,
                               const std::function<void(const NetworkEvent&)>& visit) const {
  std::size_t seen = 0;
  const auto scan = [&](const Segment& seg) {
    if (seen >= limit || seg.empty() || !seg.may_contain_subject(subject)) return;
    for (std::size_t i = seg.rows(); i-- > 0 && seen < limit;) {
      if (!seg.subject_matches(i, subject)) continue;
      visit(seg.row(i));
      ++seen;
    }
  };
  scan(open_);
  for (auto it = sealed_.rbegin(); it != sealed_.rend() && seen < limit; ++it) scan(*it);
}

const NetworkEvent* ColumnStore::find_id(std::uint64_t id) const {
  // Sealed segments hold disjoint ascending id ranges: binary-search the
  // deque on id_max, then binary-search inside the hit segment.
  auto seg_it = std::lower_bound(sealed_.begin(), sealed_.end(), id,
                                 [](const Segment& s, std::uint64_t v) {
                                   return s.zone().id_max < v;
                                 });
  const Segment* seg = nullptr;
  if (seg_it != sealed_.end() && seg_it->zone().covers_id(id)) {
    seg = &*seg_it;
  } else if (open_.zone().covers_id(id)) {
    seg = &open_;
  }
  if (!seg) return nullptr;
  const auto at = seg->find_id(id);
  if (!at) return nullptr;
  found_ = seg->row(*at);
  return &found_;
}

std::size_t ColumnStore::memory_bytes() const {
  std::size_t bytes = open_.memory_bytes();
  for (const Segment& seg : sealed_) bytes += seg.memory_bytes();
  return bytes;
}

}  // namespace livesec::mon
