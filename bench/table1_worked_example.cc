// E8 — Table I + Examples 1-3: prints the paper's running example —
// the relevance table, the matrices A and C of Fig. 1, the greedy
// matching M_B, the auxiliary LSAP profits, and a full HTA-APP solve.
#include <iostream>
#include <string>

#include "assign/hta_solver.h"
#include "matching/max_weight_matching.h"
#include "qap/qap_view.h"
#include "util/table.h"

namespace {

/// "t3", "w1", ...: appended with += because GCC 12 at -O3 raises a
/// false -Wrestrict on `"literal" + std::string`.
std::string Label(const char* prefix, size_t index) {
  std::string label = prefix;
  label += std::to_string(index);
  return label;
}

}  // namespace

int main() {
  using namespace hta;
  std::cout << "=== table1: the paper's worked example (Table I, Fig. 1, "
               "Examples 1-3) ===\n\n";

  std::vector<Task> tasks;
  for (uint64_t i = 0; i < 8; ++i) {
    tasks.emplace_back(i, KeywordVector(8, {static_cast<KeywordId>(i)}),
                       Label("t", i + 1), kNoTaskGroup, 0.05);
  }
  std::vector<Worker> workers;
  workers.emplace_back(1, KeywordVector(8, {0}), MotivationWeights{0.2, 0.8});
  workers.emplace_back(2, KeywordVector(8, {1}), MotivationWeights{0.6, 0.3});

  const std::vector<double> relevance{
      0.28, 0.30, 0.25, 0.00, 0.20, 0.20, 0.43, 0.25,
      0.67, 0.25, 0.40, 0.00, 0.00, 0.00, 0.40, 0.40,
  };
  std::vector<double> distances(64, 0.7);
  for (int i = 0; i < 8; ++i) distances[i * 8 + i] = 0.0;
  auto set_d = [&](int a, int b, double v) {
    distances[a * 8 + b] = v;
    distances[b * 8 + a] = v;
  };
  set_d(3, 7, 1.0);
  set_d(0, 5, 1.0);
  set_d(2, 1, 0.86);
  set_d(6, 4, 0.8);

  auto problem =
      HtaProblem::CreateWithMatrices(&tasks, &workers, 3, distances,
                                     relevance);
  HTA_CHECK(problem.ok()) << problem.status();

  // Table I.
  std::cout << "--- Table I: rel(t, w) ---\n";
  {
    TableWriter table({"", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"});
    for (size_t q = 0; q < 2; ++q) {
      std::vector<std::string> row{Label("w", q + 1)};
      for (TaskIndex t = 0; t < 8; ++t) {
        row.push_back(FmtDouble(
            problem->Relevance(t, static_cast<WorkerIndex>(q)), 2));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }

  // Fig. 1: matrices A and C.
  const QapView view(&*problem);
  auto print_matrix = [&](const char* name, auto accessor) {
    std::cout << "\n--- Fig. 1: matrix " << name << " ---\n";
    std::vector<std::string> header{""};
    for (int l = 0; l < 8; ++l) header.push_back(Label("v", l + 1));
    TableWriter table(header);
    for (size_t k = 0; k < 8; ++k) {
      std::vector<std::string> row{Label("t", k + 1)};
      for (size_t l = 0; l < 8; ++l) {
        row.push_back(FmtDouble(accessor(k, l), 3));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  };
  print_matrix("A", [&](size_t k, size_t l) { return view.A(k, l); });
  print_matrix("C", [&](size_t k, size_t l) { return view.C(k, l); });

  // Example 3: M_B and the auxiliary profits.
  const TaskDistanceOracle& oracle = problem->oracle();
  const GraphMatching mb =
      GreedyMaxWeightMatching(oracle.task_count(), BuildDiversityEdges(oracle));
  std::cout << "\n--- Example 3: greedy matching M_B ---\n";
  for (const auto& [u, v] : mb.edges) {
    std::cout << "  (t" << u + 1 << ", t" << v + 1
              << ")  d = " << FmtDouble(oracle(u, v), 2) << "\n";
  }
  std::vector<double> bm(8, 0.0);
  for (const auto& [u, v] : mb.edges) {
    bm[u] = bm[v] = oracle(u, v);
  }
  const double f11 = bm[0] * view.DegA(0) + view.C(0, 0);
  std::cout << "  f_{1,1} = bM(t1) * degA_1 + c_{1,1} = " << FmtDouble(f11, 3)
            << "   (paper: 0.848)\n";

  // Full solves.
  std::cout << "\n--- full solves ---\n";
  for (const bool use_app : {true, false}) {
    auto result =
        use_app ? SolveHtaApp(*problem, 42) : SolveHtaGre(*problem, 42);
    HTA_CHECK(result.ok()) << result.status();
    std::cout << (use_app ? "hta-app" : "hta-gre") << ": motivation = "
              << FmtDouble(result->stats.motivation, 3) << ", bundles:";
    for (size_t q = 0; q < 2; ++q) {
      std::cout << "  w" << q + 1 << " <-";
      for (TaskIndex t : result->assignment.bundles[q]) {
        std::cout << " t" << t + 1;
      }
    }
    std::cout << "\n";
  }
  return 0;
}
