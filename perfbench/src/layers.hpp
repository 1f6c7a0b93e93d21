// Per-layer analysis of a traced run: counts and span times from the
// decorators, ns-per-op from replaying the run's captured inputs through
// each layer's public functions, and the table that reconciles them with
// the untraced end-to-end figures.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct LayerReport {
  std::vector<Metric> metrics;  // every per-layer metric, in a fixed order
  std::string table;            // the human-readable reconciled table
  std::vector<std::string> flags;  // reconciliation checks that missed
};

/// Tolerance to which the span table must add up to the wall time per
/// delivery of the interleaved untraced slices (simulated workloads), and
/// the per-hop latency means to the untraced mean latency (bedside_udp).
inline constexpr double kReconcileTolerance = 0.25;

[[nodiscard]] LayerReport analyse(const RunOptions& opt,
                                  const Measurement& untraced,
                                  const Measurement& traced,
                                  const Tracer& tracer);

}  // namespace perfbench
