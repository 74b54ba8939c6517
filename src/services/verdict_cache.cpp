#include "services/verdict_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace livesec::svc {

const char* cached_verdict_name(CachedVerdict verdict) {
  switch (verdict) {
    case CachedVerdict::kBenign: return "benign";
    case CachedVerdict::kMalicious: return "malicious";
  }
  return "?";
}

VerdictCache::VerdictCache(Config config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
}

std::optional<VerdictCache::Entry> VerdictCache::load_live(std::uint64_t key,
                                                           std::uint64_t current_epoch) {
  Entry* entry = exact_.find(key);
  if (entry == nullptr) return std::nullopt;
  if (entry->epoch != current_epoch) {
    // Lazy invalidation: the world (policy, SE pool/signatures, mastership)
    // changed since this verdict was learned.
    exact_.erase(key);
    ++counters_.invalidations;
    return std::nullopt;
  }
  return *entry;
}

std::optional<VerdictCacheEntry> VerdictCache::lookup(const FuzzyDigest& digest) {
  if (digest.empty()) return std::nullopt;
  const std::uint64_t current = epoch();
  const std::uint64_t key = digest.key();

  const auto serve = [&](const Entry& entry, std::uint32_t distance) {
    std::uint64_t hits = 0;
    ++counters_.hits;
    if (entry.verdict == CachedVerdict::kBenign) {
      ++counters_.benign_hits;
    } else {
      ++counters_.malicious_hits;
      if (distance > 0) ++counters_.fuzzy_hits;
    }
    if (Entry* live = exact_.find(entry.digest.key()); live != nullptr) hits = ++live->hits;
    VerdictCacheEntry out;
    out.verdict = entry.verdict;
    out.rule_id = entry.rule_id;
    out.severity = entry.severity;
    out.inspected_bytes = entry.inspected_bytes;
    out.epoch = entry.epoch;
    out.hits = hits;
    out.distance = distance;
    return out;
  };

  // Exact path: serves benign and malicious alike (distance 0 by
  // construction — the key binds exact hash + byte count).
  if (auto entry = load_live(key, current)) return serve(*entry, 0);

  // Fuzzy path: malicious only. Band keys point at same-length candidates
  // agreeing on at least one lane pair; the sketch distance is then checked
  // against the threshold for real.
  for (const std::uint64_t band_key : digest.band_keys()) {
    const std::uint64_t* candidate = bands_.find(band_key);
    if (candidate == nullptr) continue;
    const std::uint64_t candidate_key = *candidate;
    if (candidate_key == key) continue;  // exact path already ruled it out
    auto entry = load_live(candidate_key, current);
    if (!entry || entry->verdict != CachedVerdict::kMalicious) continue;
    if (entry->digest.bytes != digest.bytes) continue;
    const std::uint32_t distance = FuzzyDigest::distance(entry->digest, digest);
    if (distance > config_.max_distance) continue;
    return serve(*entry, distance);
  }

  ++counters_.misses;
  return std::nullopt;
}

bool VerdictCache::insert(const FuzzyDigest& digest, CachedVerdict verdict,
                          std::uint32_t rule_id, std::uint8_t severity,
                          std::uint64_t inspected_bytes) {
  // A digest that never saw payload carries no content to key on; a benign
  // verdict below the byte budget is an undecided flow — either could serve
  // stale or wrong verdicts to every later flow, so both are refused.
  if (digest.empty() ||
      (verdict == CachedVerdict::kBenign && inspected_bytes < config_.min_benign_bytes)) {
    ++counters_.rejected_insertions;
    return false;
  }

  Entry entry;
  entry.digest = digest;
  entry.verdict = verdict;
  entry.rule_id = rule_id;
  entry.severity = severity;
  entry.inspected_bytes = inspected_bytes;
  entry.epoch = epoch();

  const std::uint64_t key = digest.key();
  if (exact_.find(key) == nullptr && exact_.size() >= config_.capacity) {
    // Same wholesale policy as the controller's decision cache: flushes are
    // rare and cheaper than per-entry LRU bookkeeping.
    clear();
    ++counters_.flushes;
  }
  exact_.insert_or_assign(key, entry);
  ++counters_.insertions;
  // A dangling band pointer is validated and dropped on the lookup path.
  for (const std::uint64_t band_key : digest.band_keys()) bands_.insert_or_assign(band_key, key);
  return true;
}

std::uint64_t VerdictCache::bump_epoch(const char* reason) {
  const std::uint64_t next = ++epoch_;
  log_debug("verdict-cache") << "epoch -> " << next << " (" << (reason ? reason : "?") << ")";
  return next;
}

void VerdictCache::advance_epoch_to(std::uint64_t target) { epoch_ = std::max(epoch_, target); }

VerdictCache::Counters VerdictCache::counters() const {
  Counters out = counters_;
  out.entries = exact_.size();
  out.epoch = epoch();
  return out;
}

void VerdictCache::clear() {
  exact_.clear();
  bands_.clear();
}

std::vector<VerdictCache::ExportedEntry> VerdictCache::export_entries() const {
  const std::uint64_t current = epoch_;
  std::vector<ExportedEntry> out;
  exact_.for_each([&](const std::uint64_t&, const Entry& entry) {
    if (entry.epoch != current) return;  // stale: not worth replicating
    out.push_back(ExportedEntry{entry.digest, entry.verdict, entry.rule_id, entry.severity,
                                entry.inspected_bytes});
  });
  std::sort(out.begin(), out.end(), [](const ExportedEntry& a, const ExportedEntry& b) {
    return a.digest.key() < b.digest.key();
  });
  return out;
}

}  // namespace livesec::svc
