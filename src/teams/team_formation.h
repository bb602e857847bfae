#ifndef HTA_TEAMS_TEAM_FORMATION_H_
#define HTA_TEAMS_TEAM_FORMATION_H_

#include <cstddef>
#include <vector>

#include "core/distance.h"
#include "core/task.h"
#include "core/worker.h"
#include "util/result.h"

namespace hta {

/// Motivation-aware team formation for collaborative tasks — the
/// paper's stated future work (Section VII): "extend this work to
/// collaborative tasks ... forming the most motivated team to complete
/// a task ... depend[ing] on the availability of workers with
/// complementary skills."
///
/// A collaborative task needs `team_size` workers. A team is scored by
/// three ingredients, mirroring the paper's diversity/relevance duality
/// at the team level:
///  * coverage         — fraction of the task's required keywords
///                       covered by the union of member interests
///                       (monotone submodular);
///  * complementarity  — mean pairwise distance between member
///                       interests (a diverse team brings different
///                       skills — the team analogue of task diversity);
///  * relevance        — mean rel(task, member) (each member
///                       individually matched to the task).
struct CollaborativeTask {
  Task task;
  size_t team_size = 2;
};

/// Relative weights of the three score terms; they need not sum to 1.
struct TeamScoreWeights {
  double coverage = 1.0;
  double complementarity = 0.5;
  double relevance = 0.25;
};

/// One team per collaborative task, in input task order. Teams may be
/// smaller than requested when eligible workers run out.
struct TeamAssignment {
  std::vector<std::vector<WorkerIndex>> teams;

  size_t TotalMembers() const {
    size_t total = 0;
    for (const auto& team : teams) total += team.size();
    return total;
  }
};

/// Fraction of `task`'s keywords covered by the union of the members'
/// interests; 1.0 for tasks with no keywords.
double TeamCoverage(const Task& task, const std::vector<WorkerIndex>& members,
                    const std::vector<Worker>& workers);

/// The full team score under `weights` (see above). Empty teams score
/// 0.
double TeamScore(const Task& task, const std::vector<WorkerIndex>& members,
                 const std::vector<Worker>& workers,
                 const TeamScoreWeights& weights, DistanceKind kind);

/// Greedy team formation: tasks are processed in input order; each team
/// is grown by repeatedly adding the worker with the best marginal
/// score gain. With pure coverage weights this is the classic greedy
/// submodular maximization with its (1 - 1/e) guarantee per task.
///
/// Workers join at most one team unless `allow_overlap`. Fails with
/// InvalidArgument on empty inputs or a zero team size.
Result<TeamAssignment> FormTeamsGreedy(
    const std::vector<CollaborativeTask>& tasks,
    const std::vector<Worker>& workers, const TeamScoreWeights& weights,
    DistanceKind kind = DistanceKind::kJaccard, bool allow_overlap = false);

}  // namespace hta

#endif  // HTA_TEAMS_TEAM_FORMATION_H_
