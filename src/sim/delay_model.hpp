// SE-granularity delay model (paper Sec. 3).
//
// The paper's timing argument is counted in switch-element pass-gate
// crossings: a signal routed through many SEs in series is slow, and
// double-length lines exist precisely to halve the crossing count on long
// straight runs.  The delay model therefore measures:
//   connection delay = (switches crossed) * se_delay
//   block delay      = lut_delay per logic level
// and the critical path is the longest accumulation over a context's
// timing DAG.
#pragma once

#include <cstddef>
#include <vector>

namespace mcfpga::sim {

struct DelayParams {
  double se_delay = 1.0;   ///< One pass-gate crossing.
  double lut_delay = 2.0;  ///< One logic-block evaluation.

  bool operator==(const DelayParams&) const = default;
};

/// One source->sink connection in the timing DAG.  Node ids are arbitrary
/// dense indices chosen by the caller (e.g. cluster ids + I/O terminals).
struct TimingArc {
  std::size_t from = 0;
  std::size_t to = 0;
  std::size_t switches = 0;  ///< Pass-gates crossed on the routed path.
  bool to_is_lut = true;     ///< Whether `to` adds a LUT delay.
};

struct TimingReport {
  double critical_path = 0.0;
  /// arrival[node] = latest arrival time.
  std::vector<double> arrival;
  /// Nodes on (one) critical path, source first.
  std::vector<std::size_t> critical_nodes;
};

/// Longest-path analysis.  Throws ProgrammingError on a combinational cycle.
/// Thin compatibility wrapper over timing::TimingGraph (src/timing/), which
/// the optimization loops use directly for incremental slack/criticality.
TimingReport analyze_timing(std::size_t num_nodes,
                            const std::vector<TimingArc>& arcs,
                            const DelayParams& params = {});

}  // namespace mcfpga::sim
