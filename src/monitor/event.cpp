#include "monitor/event.h"

#include <charconv>
#include <cstdio>
#include <sstream>

namespace livesec::mon {

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kSwitchJoin: return "switch_join";
    case EventType::kSwitchLeave: return "switch_leave";
    case EventType::kHostJoin: return "host_join";
    case EventType::kHostLeave: return "host_leave";
    case EventType::kSeOnline: return "se_online";
    case EventType::kSeOffline: return "se_offline";
    case EventType::kLinkDiscovered: return "link_discovered";
    case EventType::kFlowStart: return "flow_start";
    case EventType::kFlowEnd: return "flow_end";
    case EventType::kAttackDetected: return "attack_detected";
    case EventType::kFlowBlocked: return "flow_blocked";
    case EventType::kProtocolIdentified: return "protocol_identified";
    case EventType::kVirusFound: return "virus_found";
    case EventType::kContentViolation: return "content_violation";
    case EventType::kCertificationRejected: return "certification_rejected";
    case EventType::kLoadReport: return "load_report";
    case EventType::kPolicyDenied: return "policy_denied";
    case EventType::kAggregateLimitHit: return "aggregate_limit_hit";
    case EventType::kSeMigrated: return "se_migrated";
    case EventType::kHostMoved: return "host_moved";
    case EventType::kFailover: return "failover";
    case EventType::kReconciled: return "reconciled";
    case EventType::kFlowOffloaded: return "flow_offloaded";
  }
  return "?";
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const unsigned char byte = static_cast<unsigned char>(c);
        // Bytes >= 0x7F are escaped too: subjects/details are not guaranteed
        // to be UTF-8, and a stray high byte must not leak into the feed.
        if (byte < 0x20 || byte >= 0x7F) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

// --- subjects ------------------------------------------------------------------

namespace {

std::string render_subject(SubjectKind kind, std::uint64_t value, std::string_view text) {
  switch (kind) {
    case SubjectKind::kNone: return {};
    case SubjectKind::kText: return std::string(text);
    case SubjectKind::kMac: return MacAddress::from_uint64(value).to_string();
    case SubjectKind::kSe: return "se" + std::to_string(value);
  }
  return {};
}

}  // namespace

SubjectKey SubjectKey::parse(std::string_view s) {
  if (s.empty()) return {};
  if (const auto mac = MacAddress::parse(s); mac && mac->to_string() == s) {
    return {SubjectKind::kMac, mac->to_uint64(), {}};
  }
  if (s.size() > 2 && s.substr(0, 2) == "se") {
    std::uint64_t id = 0;
    const char* end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data() + 2, end, id);
    // Canonical only: no sign, no leading zero, no overflow.
    if (ec == std::errc() && ptr == end && "se" + std::to_string(id) == s) {
      return {SubjectKind::kSe, id, {}};
    }
  }
  return {SubjectKind::kText, 0, std::string(s)};
}

SubjectKey SubjectKey::of(const NetworkEvent& event) {
  if (event.subject.kind == SubjectKind::kText) {
    return {SubjectKind::kText, 0, std::string(event.subject_text())};
  }
  return {event.subject.kind, event.subject.value, {}};
}

std::string SubjectKey::to_string() const { return render_subject(kind, value, text); }

// --- NetworkEvent ----------------------------------------------------------------

void NetworkEvent::set_subject(Subject s) {
  if (subject.kind == SubjectKind::kText) text.erase(0, subject.value);
  subject = s;
}

void NetworkEvent::set_subject(std::string_view s) {
  SubjectKey key = SubjectKey::parse(s);
  if (key.kind != SubjectKind::kText) {
    set_subject(Subject{key.kind, key.value});
    return;
  }
  set_subject(Subject{});
  text.insert(0, key.text);
  subject = Subject{SubjectKind::kText, key.text.size()};
}

void NetworkEvent::set_detail(Detail d) {
  if (detail.kind == DetailKind::kText) text.resize(text.size() - detail_text().size());
  detail = d;
}

void NetworkEvent::set_detail(std::string_view s) {
  set_detail(Detail{});
  if (s.empty()) return;
  text.append(s);
  detail = Detail{DetailKind::kText, 0, 0};
}

std::string_view NetworkEvent::subject_text() const {
  if (subject.kind != SubjectKind::kText) return {};
  return std::string_view(text).substr(0, subject.value);
}

std::string_view NetworkEvent::detail_text() const {
  if (detail.kind != DetailKind::kText) return {};
  return std::string_view(text).substr(subject.kind == SubjectKind::kText ? subject.value : 0);
}

std::string NetworkEvent::subject_string() const {
  return render_subject(subject.kind, subject.value, subject_text());
}

std::string NetworkEvent::detail_string() const {
  switch (detail.kind) {
    case DetailKind::kNone: return {};
    case DetailKind::kText: return std::string(detail_text());
    case DetailKind::kFlowPath:
      return detail.a == 0 ? flow.to_string()
                           : flow.to_string() + " via " + std::to_string(detail.a) + " SE";
    case DetailKind::kFlowCounters:
      return "pkts=" + std::to_string(detail.a) + " bytes=" + std::to_string(detail.b);
    case DetailKind::kTornDown: return "torn down";
  }
  return {};
}

bool NetworkEvent::well_formed() const {
  if (subject.kind > SubjectKind::kSe || detail.kind > DetailKind::kTornDown) {
    return false;
  }
  if ((subject.kind == SubjectKind::kNone && subject.value != 0) ||
      (subject.kind == SubjectKind::kMac && subject.value >> 48 != 0)) {
    return false;
  }
  std::size_t subject_bytes = 0;
  if (subject.kind == SubjectKind::kText) {
    if (subject.value == 0 || subject.value > text.size()) return false;
    subject_bytes = static_cast<std::size_t>(subject.value);
    if (SubjectKey::parse(subject_text()).kind != SubjectKind::kText) return false;
  }
  // A text detail owns the (non-empty) rest of `text`; otherwise there is none.
  return detail.kind == DetailKind::kText ? text.size() > subject_bytes
                                          : text.size() == subject_bytes;
}

std::string NetworkEvent::to_string() const {
  std::ostringstream out;
  out << format_time(time) << " [" << event_type_name(type) << "] " << subject_string();
  if (detail.kind != DetailKind::kNone) out << " (" << detail_string() << ")";
  if (severity > 0) out << " sev=" << static_cast<int>(severity);
  return out.str();
}

std::string NetworkEvent::to_json() const {
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"t\":" << time << ",\"type\":\"" << event_type_name(type)
      << "\",\"subject\":\"" << json_escape(subject_string()) << "\",\"detail\":\""
      << json_escape(detail_string()) << "\",\"dpid\":" << dpid << ",\"se\":" << se_id
      << ",\"sev\":" << static_cast<int>(severity) << "}";
  return out.str();
}

}  // namespace livesec::mon
