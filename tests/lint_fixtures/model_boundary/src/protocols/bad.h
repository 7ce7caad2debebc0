// Seeded CI fixture (never compiled): a protocol header reaching past the
// station-facing surface. Linted with the repo's own .lint-layers, both
// includes are missing edges (protocol-headers -> radio, protocol-headers
// -> perf), so layer-dag must flag them and radiomc_lint must exit 1.
// Exercised by the "negative gates" step of the CI lint job.
#pragma once

#include "perf/profiler.h"
#include "radio/network.h"
