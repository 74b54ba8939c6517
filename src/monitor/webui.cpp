#include "monitor/webui.h"

#include <sstream>

namespace livesec::mon {

// String fields are escaped with the shared mon::json_escape (event.h), so
// control characters and non-ASCII bytes in names can't break the feed.

std::string WebUi::snapshot_json(SimTime events_from, SimTime events_to) const {
  const auto& topo = controller_->topology();
  const auto& monitor = controller_->service_monitor();
  std::ostringstream out;
  out << "{";

  out << "\"switches\":[";
  bool first = true;
  for (DatapathId dpid : topo.switch_ids()) {
    const auto* info = topo.switch_info(dpid);
    if (!first) out << ",";
    out << "{\"dpid\":" << dpid << ",\"name\":\"" << json_escape(info->name) << "\",\"kind\":\""
        << topo::node_kind_name(info->kind) << "\"";
    if (const auto* load = controller_->switch_load(dpid)) {
      out << ",\"bps\":" << static_cast<std::uint64_t>(load->bits_per_second)
          << ",\"pps\":" << static_cast<std::uint64_t>(load->packets_per_second)
          << ",\"flows\":" << load->flow_count;
    }
    out << "}";
    first = false;
  }
  out << "],";

  out << "\"nodes\":[";
  first = true;
  for (const auto& [key, node] : topo.nodes()) {
    if (!first) out << ",";
    out << "{\"id\":\"" << json_escape(key) << "\",\"name\":\"" << json_escape(node.name)
        << "\",\"kind\":\"" << topo::node_kind_name(node.kind) << "\",\"dpid\":" << node.dpid
        << ",\"port\":" << node.port << "}";
    first = false;
  }
  out << "],";

  out << "\"users\":[";
  first = true;
  for (const MacAddress& user : monitor.users()) {
    const auto app = monitor.dominant_app(user);
    if (!first) out << ",";
    out << "{\"mac\":\"" << user.to_string() << "\",\"app\":\""
        << (app ? svc::l7::app_protocol_name(*app) : "idle") << "\"}";
    first = false;
  }
  out << "],";

  out << "\"service_elements\":[";
  first = true;
  for (const ctrl::SeRecord* se : controller_->services().all()) {
    if (!first) out << ",";
    const auto& report = se->last_report;
    out << "{\"id\":" << se->se_id << ",\"service\":\"" << svc::service_type_name(se->service)
        << "\",\"dpid\":" << se->dpid << ",\"cpu\":" << static_cast<int>(report.cpu_percent)
        << ",\"pps\":" << report.packets_per_second
        << ",\"queued\":" << report.queued_packets
        << ",\"flow_contexts\":" << report.flow_contexts
        << ",\"context_evictions\":" << report.context_evictions
        << ",\"batches\":" << report.batches_total
        << ",\"batch_packets\":" << report.batch_packets_total
        << ",\"batch_size_hist\":[";
    for (std::size_t i = 0; i < report.batch_size_hist.size(); ++i) {
      if (i > 0) out << ",";
      out << report.batch_size_hist[i];
    }
    out << "]}";
    first = false;
  }
  out << "],";

  out << "\"full_mesh\":" << (topo.full_mesh() ? "true" : "false") << ",";

  // Control-plane health: how the flow-setup fast path is absorbing load.
  const auto& stats = controller_->stats();
  const auto& fp = stats.fastpath;
  out << "\"stats\":{"
      << "\"packet_ins\":" << stats.packet_ins
      << ",\"flows_installed\":" << stats.flows_installed
      << ",\"decision_cache_hits\":" << fp.decision_cache_hits
      << ",\"decision_cache_misses\":" << fp.decision_cache_misses
      << ",\"decision_cache_invalidations\":" << fp.decision_cache_invalidations
      << ",\"decision_cache_size\":" << controller_->decision_cache_size()
      << ",\"suppressed_packet_ins\":" << fp.suppressed_packet_ins
      << ",\"pending_setups\":" << controller_->pending_setup_count()
      << ",\"pending_setups_parked\":" << fp.pending_setups_parked
      << ",\"pending_setups_completed\":" << fp.pending_setups_completed
      << ",\"pending_setups_expired\":" << fp.pending_setups_expired
      << ",\"batched_flow_mods\":" << fp.batched_flow_mods
      << ",\"verdict_messages\":" << stats.verdict_messages
      << ",\"flows_offloaded\":" << stats.flows_offloaded
      << ",\"offload_replays\":" << stats.offload_replays
      << ",\"offload_invalidations\":" << stats.offload_invalidations
      << ",\"offloaded_now\":" << controller_->offloaded_flow_count()
      << ",\"echo_timeouts\":" << stats.echo_timeouts
      << ",\"channel_outbox_dropped\":" << controller_->channel_outbox_dropped()
      << ",\"channel_backlog\":" << controller_->channel_backlog() << "},";

  // Shared verdict-cache health (DESIGN.md §11): how much engine work the
  // deployment is skipping and how often invalidation fires.
  if (const auto& cache = controller_->verdict_cache()) {
    const svc::VerdictCache::Counters c = cache->counters();
    out << "\"verdict_cache\":{"
        << "\"hits\":" << c.hits
        << ",\"benign_hits\":" << c.benign_hits
        << ",\"malicious_hits\":" << c.malicious_hits
        << ",\"fuzzy_hits\":" << c.fuzzy_hits
        << ",\"misses\":" << c.misses
        << ",\"insertions\":" << c.insertions
        << ",\"rejected_insertions\":" << c.rejected_insertions
        << ",\"invalidations\":" << c.invalidations
        << ",\"flushes\":" << c.flushes
        << ",\"bytes_saved\":" << c.bytes_saved
        << ",\"entries\":" << c.entries
        << ",\"epoch\":" << c.epoch
        << ",\"cached_verdict_messages\":" << stats.cached_verdict_messages
        << ",\"learned\":" << stats.verdict_cache_inserts << "},";
  }

  // Host-table footprint of the routing state.
  const auto& routing = controller_->routing();
  out << "\"routing\":{"
      << "\"hosts\":" << routing.size()
      << ",\"version\":" << routing.version()
      << ",\"memory_bytes\":" << routing.memory_bytes()
      << ",\"indexed_flows\":" << controller_->host_flow_index_size() << "},";

  if (ha_status_) out << "\"ha\":" << ha_status_() << ",";

  // Monitoring-pipeline health (DESIGN.md §12): ingest volume, tier
  // occupancy and the rollup aggregates for the requested window.
  const auto& events = controller_->events();
  const auto& pc = events.counters();
  out << "\"monitor\":{"
      << "\"events_total\":" << pc.appended
      << ",\"batches\":" << pc.batches
      << ",\"clamped\":" << pc.clamped
      << ",\"rows_held\":" << events.size()
      << ",\"segments\":" << events.sealed_segments()
      << ",\"segments_sealed\":" << pc.segments_sealed
      << ",\"segments_downsampled\":" << pc.segments_downsampled
      << ",\"segments_evicted\":" << pc.segments_evicted
      << ",\"summaries\":" << events.summary_count()
      << ",\"memory_bytes\":" << events.memory_bytes()
      << ",\"rollup\":" << events.rollup_json(events_from, events_to) << "},";

  out << "\"events\":" << events.to_json(events_from, events_to);
  out << "}";
  return out.str();
}

std::string WebUi::snapshot_text(SimTime events_from, SimTime events_to) const {
  const auto& topo = controller_->topology();
  const auto& monitor = controller_->service_monitor();
  std::ostringstream out;

  out << "=== LiveSec topology ===\n";
  for (DatapathId dpid : topo.switch_ids()) {
    const auto* info = topo.switch_info(dpid);
    out << "  [" << topo::node_kind_name(info->kind) << "] " << info->name << " (dpid " << dpid
        << ")";
    if (const auto* load = controller_->switch_load(dpid); load && load->updated_at > 0) {
      out << " load=" << format_rate_bps(load->bits_per_second) << " flows=" << load->flow_count;
    }
    out << "\n";
  }
  out << "  full-mesh AS layer: " << (topo.full_mesh() ? "yes" : "no") << "\n";

  out << "--- periphery ---\n";
  for (const auto& [key, node] : topo.nodes()) {
    out << "  [" << topo::node_kind_name(node.kind) << "] " << node.name << " @ dpid "
        << node.dpid << " port " << node.port << "\n";
  }

  out << "--- users ---\n";
  for (const MacAddress& user : monitor.users()) {
    const auto app = monitor.dominant_app(user);
    out << "  " << user.to_string() << ": "
        << (app ? svc::l7::app_protocol_name(*app) : "idle") << "\n";
  }

  out << "--- top talkers ---\n";
  for (const auto& [mac, totals] : monitor.top_talkers(5)) {
    out << "  " << mac.to_string() << ": " << totals.bytes << " bytes in " << totals.flows
        << " flows\n";
  }

  out << "--- service elements ---\n";
  for (const ctrl::SeRecord* se : controller_->services().all()) {
    out << "  se" << se->se_id << " " << svc::service_type_name(se->service) << " cpu="
        << static_cast<int>(se->last_report.cpu_percent)
        << "% pps=" << se->last_report.packets_per_second
        << " queued=" << se->last_report.queued_packets
        << " contexts=" << se->last_report.flow_contexts << " (evicted "
        << se->last_report.context_evictions << ") batches=" << se->last_report.batches_total
        << "\n";
  }

  out << "--- control plane ---\n";
  const auto& stats = controller_->stats();
  const auto& fp = stats.fastpath;
  out << "  packet-ins: " << stats.packet_ins << " (suppressed " << fp.suppressed_packet_ins
      << ")\n";
  out << "  flows installed: " << stats.flows_installed << "\n";
  out << "  decision cache: " << fp.decision_cache_hits << " hits / " << fp.decision_cache_misses
      << " misses, " << controller_->decision_cache_size() << " cached, "
      << fp.decision_cache_invalidations << " flushes\n";
  out << "  pending setups: " << controller_->pending_setup_count() << " parked ("
      << fp.pending_setups_completed << " completed, " << fp.pending_setups_expired
      << " expired)\n";
  out << "  flow offload: " << stats.flows_offloaded << " cut through ("
      << controller_->offloaded_flow_count() << " held, " << stats.offload_replays
      << " replayed, " << stats.offload_invalidations << " invalidated) from "
      << stats.verdict_messages << " verdicts\n";
  if (const auto& cache = controller_->verdict_cache()) {
    const svc::VerdictCache::Counters c = cache->counters();
    out << "  verdict cache: " << c.hits << " hits (" << c.benign_hits << " benign, "
        << c.malicious_hits << " malicious, " << c.fuzzy_hits << " fuzzy) / " << c.misses
        << " misses, " << c.entries << " entries, " << c.insertions << " learned, "
        << c.invalidations << " invalidated (epoch " << c.epoch << "), "
        << c.bytes_saved / 1024 << " KiB saved\n";
  }
  out << "  channel backpressure: " << controller_->channel_backlog() << " in flight, "
      << controller_->channel_outbox_dropped() << " dropped\n";
  out << "  echo timeouts: " << stats.echo_timeouts << "\n";
  const auto& routing = controller_->routing();
  out << "  host table: " << routing.size() << " hosts, " << routing.memory_bytes() / 1024
      << " KiB, " << controller_->host_flow_index_size() << " hosts with indexed flows (v"
      << routing.version() << ")\n";
  if (ha_text_) {
    out << "--- high availability ---\n" << ha_text_();
  } else if (ha_status_) {
    out << "--- high availability ---\n  " << ha_status_() << "\n";
  }

  const auto& events = controller_->events();
  const auto& pc = events.counters();
  out << "--- monitoring pipeline ---\n";
  out << "  events: " << pc.appended << " ingested (" << pc.batches << " batches, "
      << pc.clamped << " clamped), " << events.size() << " rows held in "
      << events.sealed_segments() << " segments + " << events.summary_count()
      << " summaries, " << events.memory_bytes() / 1024 << " KiB\n";
  for (const auto& [key, count] : events.rollups().subjects().top(3)) {
    out << "  top subject: " << key << " (" << count << " events)\n";
  }
  for (const auto& [key, count] : events.rollups().protocols().top(3)) {
    out << "  top protocol: " << key << " (" << count << " flows)\n";
  }

  out << "--- events ---\n";
  controller_->events().replay(events_from, events_to, [&out](const NetworkEvent& e) {
    out << "  " << e.to_string() << "\n";
  });
  return out.str();
}

std::string WebUi::replay_text(SimTime from, SimTime to) const {
  std::ostringstream out;
  out << "=== history replay [" << format_time(from) << ", " << format_time(to) << ") ===\n";
  controller_->events().replay(from, to, [&out](const NetworkEvent& e) {
    out << "  " << e.to_string() << "\n";
  });
  return out.str();
}

std::string WebUi::replay_json(SimTime from, SimTime to) const {
  std::ostringstream out;
  out << "{\"from\":" << from << ",\"to\":" << to
      << ",\"events\":" << controller_->events().to_json(from, to) << "}";
  return out.str();
}

std::string WebUi::rollup_json(SimTime from, SimTime to, std::size_t top_k) const {
  return controller_->events().rollup_json(from, to, top_k);
}

}  // namespace livesec::mon
