#pragma once

// Central registry of named RNG split tags.
//
// Every deterministic stream in the simulator is derived from a master
// `Rng` by `master.split(tag)`; two identical (parent, tag) pairs yield
// byte-identical child streams, so the *set of tags in use* is an
// invariant worth auditing. `radiomc_lint --rule rng-stream-audit` checks
// it: bare literal tags in src/ are findings, duplicate (parent, tag)
// pairs are findings, and two registry constants sharing a value is a
// finding. Naming a tag here is how a stream becomes part of the audit.
//
// IMPORTANT: these values are load-bearing. They feed seed derivation, so
// changing any value changes every downstream trial byte-for-byte and
// invalidates the soak / health goldens. Add constants; never renumber.
//
// Reserved ranges (by convention, so families cannot collide):
//   0 .. 2^32-1        per-entity tags computed from ids (station v,
//                      2*v / 2*v+1 pairs, trial indices, retry bases) —
//                      keep registry scalars below 0x100 or above 0xFFFF
//                      only when the surrounding code cannot also split
//                      on a station id from the same parent
//   0x....  16-bit     protocol/driver stream scalars (0x5E21, 0x7a4d, ...)
//   0xFA17____         fault event-kind streams (fault_schedule.cpp)
//   0xFA5EED__         fault master-seed derivation (fault_plan.h contract)

#include <cstdint>

namespace radiomc::rng_tags {

// --- protocol driver streams (split from each run's master Rng) --------

/// Setup pipeline sub-protocol streams (protocols/setup.cpp ctor).
inline constexpr std::uint64_t kSetupLeader = 1;
inline constexpr std::uint64_t kSetupBfs = 2;
inline constexpr std::uint64_t kSetupVerifyCollection = 3;
inline constexpr std::uint64_t kSetupFloodG = 4;
/// Retry streams: the attempt index is added to the base, so attempts get
/// fresh, ordered streams (bases spaced so the families cannot overlap
/// for any plausible attempt count).
inline constexpr std::uint64_t kSetupFloodRetryBase = 100;
inline constexpr std::uint64_t kSetupCollRetryBase = 200;

/// Service-mode driver streams (service/service.cpp).
inline constexpr std::uint64_t kServiceArrival = 0x5E21;
inline constexpr std::uint64_t kServicePlacement = 0x5E22;

/// Tandem-queue model drivers (queueing/models.cpp §2/§3/§4 figures).
inline constexpr std::uint64_t kModel2Tandem = 0x7a4d;
inline constexpr std::uint64_t kModel3Tandem = 0x30d3;
inline constexpr std::uint64_t kModel4Tandem = 0x40d4;

// --- fault subsystem ---------------------------------------------------

/// Fault master-stream tag: `master.split(kFaultStream).next()` seeds a
/// FaultSchedule. High bits keep it clear of the small per-station tags
/// protocols draw from the same master (see faults/fault_plan.h).
inline constexpr std::uint64_t kFaultStream = 0xFA5EED00;

/// Per-event-kind fault streams, split from the schedule's root
/// (faults/fault_schedule.cpp).
inline constexpr std::uint64_t kFaultCrash = 0xFA170001;
inline constexpr std::uint64_t kFaultRecover = 0xFA170002;
inline constexpr std::uint64_t kFaultLinkDown = 0xFA170003;
inline constexpr std::uint64_t kFaultLinkUp = 0xFA170004;
inline constexpr std::uint64_t kFaultJam = 0xFA170005;
inline constexpr std::uint64_t kFaultDrop = 0xFA170006;

// --- engine ------------------------------------------------------------

/// Historical fixed seed for RadioNetwork's capture fallback stream when
/// the config supplies no capture_stream (radio/network.cpp). A seed, not
/// a split tag — named here so the fixed-literal-seed audit covers it.
inline constexpr std::uint64_t kCaptureFallbackSeed = 0xCA97;

}  // namespace radiomc::rng_tags
