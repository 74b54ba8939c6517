// Shared fuzzy-hash verdict cache (DESIGN.md §11).
//
// One deployment-wide store maps payload content fingerprints
// (common/fuzzy_digest.h) to scan verdicts, so the Nth flow carrying content
// an SE already inspected gets an instant benign-offload or malicious-block
// without an Aho-Corasick pass. rspamd's fuzzy storage and the antivirus
// CACHE HIT/MISS suites are the model; the LiveSec twist is that the cache
// is shared across flows *and* across every SE of a deployment, and its
// entries are epoch-stamped like the controller's offload memos:
//
//  - benign verdicts are served on EXACT content match only (same exact
//    hash, same byte count) — a near-duplicate payload must never ride a
//    benign verdict past inspection;
//  - malicious verdicts are additionally served on FUZZY match (same length,
//    sketch distance <= max_distance) via LSH band keys — an exploit
//    variant with a few bytes flipped is still blocked;
//  - every entry records the store epoch it was learned under. Policy
//    mutations, SE signature/pool changes and HA promotion bump the epoch;
//    stale entries are invalidated lazily on their next lookup;
//  - "keep-inspecting" results are never inserted, and benign inserts must
//    have cleared the learning SE's byte budget — undecided flows cannot
//    poison the cache.
//
// The store is one exact map and one band map, flushed whole at capacity.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_hash.h"
#include "common/fuzzy_digest.h"

namespace livesec::svc {

enum class CachedVerdict : std::uint8_t {
  kBenign = 1,
  kMalicious = 2,
};

const char* cached_verdict_name(CachedVerdict verdict);

/// One cached verdict, as returned to lookers-up (a value copy of the store
/// entry).
struct VerdictCacheEntry {
  CachedVerdict verdict = CachedVerdict::kBenign;
  std::uint32_t rule_id = 0;      // triggering signature (malicious only)
  std::uint8_t severity = 0;
  std::uint64_t inspected_bytes = 0;  // stream bytes the learning SE covered
  std::uint64_t epoch = 0;            // store epoch the entry was learned under
  std::uint64_t hits = 0;             // times served (including this one)
  std::uint32_t distance = 0;         // sketch distance of this match (0 = exact)
};

class VerdictCache {
 public:
  struct Config {
    /// Entry bound; inserting a new digest into a full store flushes it
    /// (same wholesale policy as the controller's decision cache).
    std::size_t capacity = 32768;
    /// Max sketch-lane distance for a fuzzy (malicious-only) match.
    std::uint32_t max_distance = 2;
    /// Benign inserts whose flows inspected fewer payload bytes than this
    /// are refused (the caller passes the SE's verdict byte budget).
    std::uint64_t min_benign_bytes = 0;
  };

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t benign_hits = 0;
    std::uint64_t malicious_hits = 0;
    std::uint64_t fuzzy_hits = 0;  // malicious hits served at distance > 0
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t rejected_insertions = 0;  // below byte budget / empty digest
    std::uint64_t invalidations = 0;        // stale-epoch entries erased on lookup
    std::uint64_t flushes = 0;              // store wipes at capacity
    std::uint64_t bytes_saved = 0;          // payload bytes SEs skipped on hits
    std::uint64_t entries = 0;              // live entries (may include stale)
    std::uint64_t epoch = 0;
  };

  VerdictCache() : VerdictCache(Config{}) {}
  explicit VerdictCache(Config config);

  /// Probes the store with a flow's digest-so-far. Counts a hit or miss;
  /// erases (and counts) stale entries it runs into.
  std::optional<VerdictCacheEntry> lookup(const FuzzyDigest& digest);

  /// Learns a verdict for `digest`. Returns false when refused (empty
  /// digest, or a benign insert below min_benign_bytes).
  bool insert(const FuzzyDigest& digest, CachedVerdict verdict, std::uint32_t rule_id,
              std::uint8_t severity, std::uint64_t inspected_bytes);

  /// Invalidates every current entry (lazily, via epoch stamping) and
  /// returns the new epoch. `reason` feeds logging/telemetry only.
  std::uint64_t bump_epoch(const char* reason);

  /// Raises the epoch to at least `epoch` (idempotent — replicated epoch
  /// records may be applied by several controllers sharing one store).
  void advance_epoch_to(std::uint64_t epoch);

  std::uint64_t epoch() const { return epoch_; }

  /// Credits payload bytes an SE skipped inspecting thanks to a prior hit.
  void note_bytes_saved(std::uint64_t n) { counters_.bytes_saved += n; }

  Counters counters() const;

  /// Live entries (including not-yet-collected stale ones).
  std::size_t size() const { return exact_.size(); }

  void clear();

  /// Current-epoch entries in deterministic (key-sorted) order, for HA
  /// snapshot export.
  struct ExportedEntry {
    FuzzyDigest digest;
    CachedVerdict verdict = CachedVerdict::kBenign;
    std::uint32_t rule_id = 0;
    std::uint8_t severity = 0;
    std::uint64_t inspected_bytes = 0;
  };
  std::vector<ExportedEntry> export_entries() const;

 private:
  struct Entry {
    FuzzyDigest digest;
    CachedVerdict verdict = CachedVerdict::kBenign;
    std::uint32_t rule_id = 0;
    std::uint8_t severity = 0;
    std::uint64_t inspected_bytes = 0;
    std::uint64_t epoch = 0;
    std::uint64_t hits = 0;
  };

  /// Fetches + validates the entry for `key`; erases it when its epoch is
  /// stale. Returns nullopt when absent or stale.
  std::optional<Entry> load_live(std::uint64_t key, std::uint64_t current_epoch);

  Config config_;
  /// digest.key() -> entry (exact-match path).
  FlatHashMap<std::uint64_t, Entry> exact_;
  /// LSH band key -> candidate digest.key() (fuzzy path; last writer wins,
  /// candidates are validated against `exact_` on use).
  FlatHashMap<std::uint64_t, std::uint64_t> bands_;
  /// Plain counters: the simulator is single-threaded. `entries` is read
  /// off the map.
  Counters counters_;
  std::uint64_t epoch_ = 0;
};

}  // namespace livesec::svc
