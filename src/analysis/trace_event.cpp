#include "analysis/trace_event.h"

namespace radiomc::analysis {

bool is_upbound_kind(MsgKind k) noexcept {
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

}  // namespace radiomc::analysis
