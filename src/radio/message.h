#pragma once

// The message vocabulary of the protocol suite.
//
// The paper allows messages of O(log n) bits; every field below is a node
// id, a level, or a sequence number, i.e. O(log n) bits each, so the struct
// respects the model. Per §4, data messages carry the id of the transmitting
// node and of its BFS parent, which is how a receiver decides whether the
// message came from a BFS child, its BFS parent, or an unrelated neighbor.

#include <cstdint>

#include "graph/graph.h"

namespace radiomc {

using SlotTime = std::uint64_t;
using ChannelId = std::uint32_t;

/// Destination value meaning "all nodes" (broadcast payloads).
inline constexpr NodeId kAllNodes = static_cast<NodeId>(-2);

enum class MsgKind : std::uint8_t {
  kData,          ///< collection / point-to-point payload (unique destination)
  kAck,           ///< deterministic acknowledgement (§3)
  kLeader,        ///< leader election: best-candidate flood
  kBfsAnnounce,   ///< BFS construction: "I am at level L, join below me"
  kDfsToken,      ///< token of the DFS traversals of §5.1
  kBcastData,     ///< distribution pipeline payload (§6)
  kNack,          ///< gap-repair request, routed to the root like data
  kSetupReport,   ///< "I joined the tree" verification message (§2)
};

/// Kinds that climb the BFS tree child -> parent (collection §4, the
/// upbound half of p2p §5, nack repair, setup reports). A receiver accepts
/// one as a hop when it names the receiver as the sender's parent.
constexpr bool is_upbound_kind(MsgKind k) noexcept {
  switch (k) {
    case MsgKind::kData:
    case MsgKind::kNack:
    case MsgKind::kSetupReport:
      return true;
    case MsgKind::kAck:
    case MsgKind::kLeader:
    case MsgKind::kBfsAnnounce:
    case MsgKind::kDfsToken:
    case MsgKind::kBcastData:
      return false;
  }
  return false;
}

struct Message {
  MsgKind kind = MsgKind::kData;
  NodeId origin = kNoNode;         ///< original source of the payload
  NodeId dest = kNoNode;           ///< final destination (kAllNodes = broadcast)
  NodeId sender = kNoNode;         ///< immediate transmitter (appended, §4)
  NodeId sender_parent = kNoNode;  ///< transmitter's BFS parent (appended, §4)
  std::uint32_t seq = 0;           ///< per-origin sequence number / message id
  std::uint32_t aux = 0;           ///< protocol-specific small field (level, ...)
  std::uint64_t payload = 0;       ///< application payload
};

}  // namespace radiomc
