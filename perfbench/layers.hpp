// Per-layer probes of the end-to-end benchmark: each times one layer's own
// public entry point in isolation, outside the grid, so a change in a layer
// can be told apart from a change in how the layers are composed.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "grid/grid.hpp"

namespace perfbench {

/// Records one span per probe through `on_span(name, start_ns, end_ns)`.
using SpanSink = void (*)(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns);

/// Runs every standalone layer probe. Keys are the per-layer metric names
/// of BENCHMARK.json; all timings are medians over repeated batches.
std::map<std::string, double> probe_layers(
    std::uint64_t seed, const pg::grid::TopologySpec& topology,
    SpanSink on_span);

/// Median control round trip site0 -> site1 on a live grid (microseconds).
double probe_ping_rtt_us(pg::grid::Grid& grid, SpanSink on_span);

/// Time of a fixed ALU loop in the benchmark's own code (milliseconds); it
/// moves only when the machine does.
double probe_ref_loop_ms();

}  // namespace perfbench
