// Network event model: everything the LiveSec WebUI displays and replays
// (paper §IV.D: "user join and leave, load condition of links and various
// service elements, which user is accessing which application service,
// where attacks happen, and so on").
//
// Events are typed (DESIGN.md §12): the subject is a tag plus a 64-bit value
// and the detail a kind plus two numeric args, so the flow-setup path raises
// an event without formatting or copying any string. The display strings
// are rendered only when an event is read (to_string/to_json, queries, the
// WebUI). Rare events whose subject or detail is free text (switch names,
// policy names, SE daemon descriptions) carry it in `text`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/mac_address.h"
#include "common/types.h"
#include "packet/flow_key.h"

namespace livesec::mon {

enum class EventType : std::uint8_t {
  kSwitchJoin = 1,
  kSwitchLeave,
  kHostJoin,
  kHostLeave,
  kSeOnline,
  kSeOffline,
  kLinkDiscovered,
  kFlowStart,
  kFlowEnd,
  kAttackDetected,
  kFlowBlocked,
  kProtocolIdentified,
  kVirusFound,
  kContentViolation,
  kCertificationRejected,
  kLoadReport,
  kPolicyDenied,
  kAggregateLimitHit,
  kSeMigrated,
  kHostMoved,
  kFailover,
  kReconciled,
  kFlowOffloaded,
};

const char* event_type_name(EventType type);

/// Number of slots needed to index counters by raw EventType value (values
/// start at 1; slot 0 is unused). Bump when a type past kFlowOffloaded lands.
inline constexpr std::size_t kEventTypeSlots = 32;

/// JSON string escaping shared by every monitor-layer JSON producer: quotes,
/// backslashes, control characters, and non-ASCII bytes (emitted as \u00xx so
/// the output stays valid JSON even for arbitrary binary subjects/details).
std::string json_escape(std::string_view s);

/// What an event is about. Each kind renders to its own string form, and a
/// text subject never has the form of another kind (set_subject parses it),
/// so two subjects are equal exactly when their renderings are.
enum class SubjectKind : std::uint8_t {
  kNone = 0,  // ""
  kText,      // free text; the first `value` bytes of NetworkEvent::text
  kMac,       // a host: "aa:bb:cc:dd:ee:ff"
  kSe,        // a service element: "se<id>"
};

struct Subject {
  SubjectKind kind = SubjectKind::kNone;
  std::uint64_t value = 0;

  static Subject mac(MacAddress address) { return {SubjectKind::kMac, address.to_uint64()}; }
  static Subject se(std::uint64_t se_id) { return {SubjectKind::kSe, se_id}; }

  friend bool operator==(const Subject&, const Subject&) = default;
};

/// The detail line's shape; the numbers live in Detail::a and Detail::b.
enum class DetailKind : std::uint8_t {
  kNone = 0,      // ""
  kText,          // free text; NetworkEvent::text after the subject's part
  kFlowPath,      // event.flow's key, plus " via <a> SE" when a > 0
  kFlowCounters,  // "pkts=<a> bytes=<b>"
  kTornDown,      // "torn down"
};

struct Detail {
  DetailKind kind = DetailKind::kNone;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  static Detail flow_path(std::uint64_t se_count) { return {DetailKind::kFlowPath, se_count, 0}; }
  static Detail flow_counters(std::uint64_t packets, std::uint64_t bytes) {
    return {DetailKind::kFlowCounters, packets, bytes};
  }
  static Detail torn_down() { return {DetailKind::kTornDown, 0, 0}; }

  friend bool operator==(const Detail&, const Detail&) = default;
};

/// One record in the event database.
struct NetworkEvent {
  std::uint64_t id = 0;  // assigned by the EventPipeline, monotonically
  SimTime time = 0;
  EventType type = EventType::kFlowStart;
  Subject subject;
  Detail detail;
  /// Free text of a kText subject followed by that of a kText detail; empty
  /// (no heap) for typed events. Set it through set_subject/set_detail.
  std::string text;
  DatapathId dpid = 0;
  std::uint64_t se_id = 0;
  std::uint8_t severity = 0;
  pkt::FlowKey flow;

  /// Typed setters (not kText); they keep `text` in step with the kinds.
  void set_subject(Subject s);
  void set_detail(Detail d);
  /// Text setters. set_subject stores a MAC or "se<id>" in its canonical
  /// form as the typed kind and anything else as text; "" is kNone.
  void set_subject(std::string_view s);
  void set_detail(std::string_view s);

  std::string_view subject_text() const;
  std::string_view detail_text() const;
  /// The display strings, rendered on demand.
  std::string subject_string() const;
  std::string detail_string() const;

  /// False when the kinds, values and text disagree (a decoder's check on
  /// untrusted input): an unknown kind, a MAC past 48 bits, text without a
  /// text kind, or a text subject that has the form of a typed one.
  bool well_formed() const;

  /// Single-line rendering for logs and the ASCII UI.
  std::string to_string() const;
  /// JSON object rendering for the WebUI data feed.
  std::string to_json() const;

  friend bool operator==(const NetworkEvent&, const NetworkEvent&) = default;
};

/// A subject with its text resolved: the identity subject queries and the
/// Top-K sketch compare. Equal keys render equally and vice versa.
struct SubjectKey {
  SubjectKind kind = SubjectKind::kNone;
  std::uint64_t value = 0;  // 0 for text
  std::string text;         // empty unless kText

  static SubjectKey of(const NetworkEvent& event);
  /// Parses a rendered subject back into its key (the set_subject rules).
  static SubjectKey parse(std::string_view s);
  std::string to_string() const;

  friend bool operator==(const SubjectKey&, const SubjectKey&) = default;
  friend auto operator<=>(const SubjectKey&, const SubjectKey&) = default;
};

}  // namespace livesec::mon
