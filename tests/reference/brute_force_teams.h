// Test-only reference: exact team formation by exhaustive search over
// member subsets, one task at a time in input order (so it is exact per
// task given earlier choices, matching what FormTeamsGreedy
// approximates). Exponential; limited to <= 12 workers and team sizes
// <= 5.
#ifndef HTA_TESTS_REFERENCE_BRUTE_FORCE_TEAMS_H_
#define HTA_TESTS_REFERENCE_BRUTE_FORCE_TEAMS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "teams/team_formation.h"
#include "util/result.h"

namespace hta::reference {

namespace brute_force_teams_internal {

/// Tries every complete team of free workers with ids >= `next` and
/// keeps the best-scoring one.
inline void SearchTeams(const CollaborativeTask& ct,
                        const std::vector<Worker>& workers,
                        const TeamScoreWeights& weights, DistanceKind kind,
                        const std::vector<bool>& taken, size_t next,
                        std::vector<WorkerIndex>* team, double* best_score,
                        std::vector<WorkerIndex>* best_team) {
  if (team->size() == ct.team_size) {
    const double score = TeamScore(ct.task, *team, workers, weights, kind);
    if (score > *best_score) {
      *best_score = score;
      *best_team = *team;
    }
    return;
  }
  for (size_t w = next; w < workers.size(); ++w) {
    if (taken[w]) continue;
    team->push_back(static_cast<WorkerIndex>(w));
    SearchTeams(ct, workers, weights, kind, taken, w + 1, team, best_score,
                best_team);
    team->pop_back();
  }
}

}  // namespace brute_force_teams_internal

/// Same inputs and team order as FormTeamsGreedy. Fails with
/// InvalidArgument on empty inputs, a zero team size, more than 12
/// workers or a team size above 5.
inline Result<TeamAssignment> FormTeamsBruteForce(
    const std::vector<CollaborativeTask>& tasks,
    const std::vector<Worker>& workers, const TeamScoreWeights& weights,
    DistanceKind kind = DistanceKind::kJaccard, bool allow_overlap = false) {
  if (tasks.empty() || workers.empty()) {
    return Status::InvalidArgument("team formation needs tasks and workers");
  }
  if (workers.size() > 12) {
    return Status::InvalidArgument(
        "brute-force team formation limited to 12 workers");
  }
  for (const CollaborativeTask& t : tasks) {
    if (t.team_size == 0 || t.team_size > 5) {
      return Status::InvalidArgument(
          "brute-force team formation needs 1 <= team_size <= 5");
    }
  }
  TeamAssignment assignment;
  assignment.teams.reserve(tasks.size());
  std::vector<bool> taken(workers.size(), false);
  for (const CollaborativeTask& ct : tasks) {
    std::vector<WorkerIndex> team;
    std::vector<WorkerIndex> best_team;
    double best_score = -1.0;
    brute_force_teams_internal::SearchTeams(ct, workers, weights, kind, taken,
                                            0, &team, &best_score,
                                            &best_team);
    if (best_team.empty()) {
      // Fewer free workers than team_size: take everyone who is left.
      for (size_t w = 0; w < workers.size(); ++w) {
        if (!taken[w]) best_team.push_back(static_cast<WorkerIndex>(w));
      }
    }
    if (!allow_overlap) {
      for (WorkerIndex m : best_team) taken[m] = true;
    }
    assignment.teams.push_back(std::move(best_team));
  }
  return assignment;
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_BRUTE_FORCE_TEAMS_H_
