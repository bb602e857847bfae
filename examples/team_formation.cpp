// Team formation for collaborative tasks — the paper's future-work
// direction (Section VII) implemented as a library extension: form the
// most motivated team per task from workers with complementary skills.
//
// Run: ./build/examples/team_formation
#include <iostream>

#include "core/keyword_space.h"
#include "teams/team_formation.h"
#include "util/table.h"

int main() {
  using namespace hta;

  KeywordSpace space;
  const KeywordId kFrench = space.Intern("french");
  const KeywordId kEnglish = space.Intern("english");
  const KeywordId kAudio = space.Intern("audio");
  const KeywordId kMedical = space.Intern("medical");
  const KeywordId kLegal = space.Intern("legal");
  const KeywordId kOcr = space.Intern("ocr");
  const size_t universe = space.size();

  // Two collaborative tasks, each needing a pair of workers.
  std::vector<CollaborativeTask> tasks;
  tasks.push_back({Task(0, KeywordVector(universe,
                                         {kFrench, kEnglish, kAudio}),
                        "translate a French interview recording", 0, 0.40),
                   2});
  tasks.push_back({Task(1, KeywordVector(universe,
                                         {kMedical, kLegal, kOcr}),
                        "digitize a medico-legal report", 1, 0.55),
                   2});

  // A worker pool with partially overlapping skills.
  std::vector<Worker> workers;
  workers.emplace_back(0, KeywordVector(universe, {kFrench, kEnglish}));
  workers.emplace_back(1, KeywordVector(universe, {kAudio, kEnglish}));
  workers.emplace_back(2, KeywordVector(universe, {kFrench, kAudio}));
  workers.emplace_back(3, KeywordVector(universe, {kMedical, kOcr}));
  workers.emplace_back(4, KeywordVector(universe, {kLegal}));
  workers.emplace_back(5, KeywordVector(universe, {kOcr}));

  const TeamScoreWeights weights;  // coverage 1.0 / compl. 0.5 / rel 0.25
  auto teams = FormTeamsGreedy(tasks, workers, weights);
  if (!teams.ok()) {
    std::cerr << "team formation failed: " << teams.status() << "\n";
    return 1;
  }

  TableWriter table({"task", "team", "coverage", "score"});
  for (size_t t = 0; t < tasks.size(); ++t) {
    std::string members;
    for (WorkerIndex m : teams->teams[t]) {
      if (!members.empty()) members += " + ";
      members += "w";
      members += std::to_string(workers[m].id());
    }
    table.AddRow({tasks[t].task.title(), members,
                  FmtPercent(TeamCoverage(tasks[t].task, teams->teams[t],
                                          workers)),
                  FmtDouble(TeamScore(tasks[t].task, teams->teams[t], workers,
                                      weights, DistanceKind::kJaccard))});
  }
  table.Print(std::cout);
  std::cout << "\nEach team unions complementary skills to cover its task's "
               "requirements;\nworkers join at most one team.\n";
  return 0;
}
