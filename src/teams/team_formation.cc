#include "teams/team_formation.h"

#include <algorithm>

#include "util/check.h"

namespace hta {

double TeamCoverage(const Task& task, const std::vector<WorkerIndex>& members,
                    const std::vector<Worker>& workers) {
  const size_t required = task.keywords().Count();
  if (required == 0) return 1.0;
  KeywordVector covered(task.keywords().universe_size());
  for (WorkerIndex m : members) {
    HTA_DCHECK_LT(static_cast<size_t>(m), workers.size());
    for (KeywordId id : workers[m].interests().ToIds()) {
      if (task.keywords().Test(id)) covered.Set(id);
    }
  }
  return static_cast<double>(covered.Count()) /
         static_cast<double>(required);
}

double TeamScore(const Task& task, const std::vector<WorkerIndex>& members,
                 const std::vector<Worker>& workers,
                 const TeamScoreWeights& weights, DistanceKind kind) {
  if (members.empty()) return 0.0;
  const double coverage = TeamCoverage(task, members, workers);

  double complementarity = 0.0;
  if (members.size() >= 2) {
    double sum = 0.0;
    size_t pairs = 0;
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        sum += VectorDistance(kind, workers[members[a]].interests(),
                              workers[members[b]].interests());
        ++pairs;
      }
    }
    complementarity = sum / static_cast<double>(pairs);
  }

  double relevance = 0.0;
  for (WorkerIndex m : members) {
    relevance += TaskRelevance(kind, task, workers[m]);
  }
  relevance /= static_cast<double>(members.size());

  return weights.coverage * coverage +
         weights.complementarity * complementarity +
         weights.relevance * relevance;
}

namespace {

Status ValidateInputs(const std::vector<CollaborativeTask>& tasks,
                      const std::vector<Worker>& workers) {
  if (tasks.empty()) {
    return Status::InvalidArgument("team formation needs at least one task");
  }
  if (workers.empty()) {
    return Status::InvalidArgument("team formation needs workers");
  }
  for (const CollaborativeTask& t : tasks) {
    if (t.team_size == 0) {
      return Status::InvalidArgument("team_size must be >= 1");
    }
  }
  return Status::OK();
}

}  // namespace

Result<TeamAssignment> FormTeamsGreedy(
    const std::vector<CollaborativeTask>& tasks,
    const std::vector<Worker>& workers, const TeamScoreWeights& weights,
    DistanceKind kind, bool allow_overlap) {
  HTA_RETURN_IF_ERROR(ValidateInputs(tasks, workers));
  TeamAssignment assignment;
  assignment.teams.reserve(tasks.size());
  std::vector<bool> taken(workers.size(), false);

  for (const CollaborativeTask& ct : tasks) {
    std::vector<WorkerIndex> team;
    while (team.size() < ct.team_size) {
      double best_gain = 0.0;
      size_t best_worker = workers.size();
      const double base = TeamScore(ct.task, team, workers, weights, kind);
      for (size_t w = 0; w < workers.size(); ++w) {
        if (!allow_overlap && taken[w]) continue;
        if (std::find(team.begin(), team.end(), static_cast<WorkerIndex>(w)) !=
            team.end()) {
          continue;
        }
        team.push_back(static_cast<WorkerIndex>(w));
        const double gain =
            TeamScore(ct.task, team, workers, weights, kind) - base;
        team.pop_back();
        if (best_worker == workers.size() || gain > best_gain) {
          best_gain = gain;
          best_worker = w;
        }
      }
      if (best_worker == workers.size()) break;  // Nobody left.
      team.push_back(static_cast<WorkerIndex>(best_worker));
      if (!allow_overlap) taken[best_worker] = true;
    }
    assignment.teams.push_back(std::move(team));
  }
  return assignment;
}

}  // namespace hta
