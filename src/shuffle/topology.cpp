#include "shuffle/topology.hpp"

#include "util/error.hpp"

namespace dshuf::shuffle {

Topology Topology::resolved_for(int workers) const {
  DSHUF_CHECK_GT(groups, 0, "topology needs at least one group");
  Topology t = *this;
  if (t.group_size == 0) {
    DSHUF_CHECK_EQ(workers % groups, 0,
                   "workers (" << workers << ") must divide evenly into "
                               << groups << " groups");
    t.group_size = workers / groups;
  }
  DSHUF_CHECK_EQ(t.groups * t.group_size, workers,
                 "topology shape " << t.groups << "x" << t.group_size
                                   << " does not cover " << workers
                                   << " workers");
  DSHUF_CHECK_GT(t.intra_bw_bps, 0.0, "intra-group bandwidth must be > 0");
  DSHUF_CHECK_GT(t.inter_bw_bps, 0.0, "inter-group bandwidth must be > 0");
  DSHUF_CHECK(t.intra_fraction >= 0.0 && t.intra_fraction <= 1.0,
              "intra fraction must be in [0, 1]");
  return t;
}

}  // namespace dshuf::shuffle
