// Recycling allocator behind the shared-packet hot path.
#pragma once

#include <memory>

#include "packet/packet.h"

namespace livesec::pkt {

/// Wraps a Packet into the shared form using a pooled allocation.
///
/// `std::make_shared<const Packet>` costs one heap allocation (control block
/// + Packet) per packet; on the simulation hot path packets are created and
/// destroyed at line rate, and a header-rewrite hop (paper §IV.A installs
/// four per policied flow) mints another one whenever the packet is shared
/// (see `writable_packet`). The pool keeps freed blocks on
/// a free list and hands them back on the next allocation, so steady-state
/// traffic recycles a small working set of blocks instead of hammering
/// malloc. The free list is bounded; overflow falls back to operator delete.
///
/// Returns a mutable pointer so callers can finish header rewrites before
/// publishing; it converts implicitly to PacketPtr (shared_ptr<const Packet>)
/// which freezes it by convention while it is shared.
std::shared_ptr<Packet> pooled_packet(Packet&& p);

/// The packet behind `packet`, open for a header rewrite. When the caller
/// holds the only reference the rewrite lands in place: no other holder can
/// see it, and casting away const is defined because `pooled_packet` (the
/// only maker of packets) creates every Packet non-const. Otherwise `packet`
/// is first replaced by a pooled copy, so other holders keep what they saw.
inline Packet& writable_packet(PacketPtr& packet) {
  if (packet.use_count() != 1) packet = pooled_packet(Packet(*packet));
  return const_cast<Packet&>(*packet);
}

}  // namespace livesec::pkt
