#include "mppdb/query_model.h"

#include <cassert>

namespace thrifty {

SimDuration QueryTemplate::DedicatedLatency(double data_gb, int nodes) const {
  assert(nodes >= 1);
  assert(data_gb >= 0);
  double single_node_seconds = work_seconds_per_gb * data_gb;
  double seconds = single_node_seconds *
                   (serial_fraction + (1.0 - serial_fraction) / nodes);
  SimDuration d = SecondsToDuration(seconds);
  // Every query costs at least one tick so that completions are strictly
  // after submissions.
  return d > 0 ? d : 1;
}

double QueryTemplate::Speedup(int nodes) const {
  assert(nodes >= 1);
  return 1.0 / (serial_fraction + (1.0 - serial_fraction) / nodes);
}

bool IsLinearScaleOut(const QueryTemplate& t, int nodes, double tolerance) {
  return t.Speedup(nodes) >= (1.0 - tolerance) * nodes;
}

}  // namespace thrifty
