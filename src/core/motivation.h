#ifndef HTA_CORE_MOTIVATION_H_
#define HTA_CORE_MOTIVATION_H_

#include <vector>

#include "core/distance_oracle.h"
#include "core/task.h"

namespace hta {

/// A bundle of task indices assigned to one worker (T'_w).
using TaskBundle = std::vector<TaskIndex>;

/// Task diversity TD(T') = sum over unordered pairs of d(t_k, t_l)
/// (Eq. 1). Quadratic in |T'|. Eq. 3 itself is BundleMotivation
/// (assign/assignment.h), which reads relevance from the problem.
double SetDiversity(const TaskBundle& bundle, const TaskDistanceOracle& d);

}  // namespace hta

#endif  // HTA_CORE_MOTIVATION_H_
