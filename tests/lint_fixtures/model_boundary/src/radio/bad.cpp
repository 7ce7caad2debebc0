// Seeded CI fixture (never compiled): the engine timing itself. Linted
// with the repo's own .lint-layers, both includes are missing edges
// (radio -> clock, radio -> perf), so layer-dag must flag them and
// radiomc_lint must exit 1. Exercised by the "negative gates" step of the
// CI lint job.
#include "perf/profiler.h"
#include "support/stopwatch.h"
