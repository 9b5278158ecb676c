// Analytical query cost model.
//
// Thrifty never inspects SQL; what matters to consolidation is a query's
// latency as a function of (tenant data size, instance node count) and how
// latency degrades under concurrency. This model captures both:
//
//  * Scale-out: a query carries `work_seconds_per_gb` (single-node seconds of
//    work per GB of tenant data) and an Amdahl `serial_fraction` s. Its
//    latency on a dedicated n-node instance over D GB is
//        T(n) = work_seconds_per_gb * D * (s + (1 - s) / n).
//    s ~ 0 gives linear scale-out (TPC-H Q1 in Fig 1.1a); s >> 0 gives the
//    non-linear behaviour of TPC-H Q19 (Fig 1.1c).
//
//  * Concurrency: instances serve queries by egalitarian processor sharing
//    (mppdb/instance.h) — with k concurrent queries each progresses at 1/k
//    of its dedicated rate, reproducing the 2x / 4x slowdowns of Fig 1.1a
//    (lines 2T-CON / 4T-CON) for I/O-bound analytics.

#ifndef THRIFTY_MPPDB_QUERY_MODEL_H_
#define THRIFTY_MPPDB_QUERY_MODEL_H_

#include <cstdint>
#include <string>

#include "common/sim_time.h"

namespace thrifty {

/// \brief Identifier of a query template in the catalog.
using TemplateId = int32_t;

/// \brief Cost profile of one query template (e.g. "TPCH-Q1").
struct QueryTemplate {
  TemplateId id = -1;
  std::string name;

  /// Single-node execution seconds per GB of tenant data.
  double work_seconds_per_gb = 1.0;

  /// Amdahl serial fraction in [0, 1): the portion of the work that does not
  /// speed up with more nodes.
  double serial_fraction = 0.0;

  /// \brief Dedicated latency over `data_gb` of data on `nodes` nodes.
  SimDuration DedicatedLatency(double data_gb, int nodes) const;

  /// \brief Speedup of `nodes` nodes relative to a single node.
  double Speedup(int nodes) const;
};

/// \brief True if the template's speedup is within `tolerance` of ideal
/// linear speedup at `nodes` nodes (used to classify Q1-like vs Q19-like
/// templates).
bool IsLinearScaleOut(const QueryTemplate& t, int nodes,
                      double tolerance = 0.2);

}  // namespace thrifty

#endif  // THRIFTY_MPPDB_QUERY_MODEL_H_
