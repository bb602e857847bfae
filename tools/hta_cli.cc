// hta — command-line front end for libhta.
//
// Subcommands:
//   hta generate --tasks-out c.csv --workers-out w.csv
//                [--groups N] [--tasks-per-group N] [--vocab N]
//                [--workers N] [--seed S]
//       Generate a synthetic AMT-like catalog and worker population.
//
//   hta solve --tasks c.csv --workers w.csv [--xmax N]
//             [--algo app|gre] [--seed S] [--out assign.csv]
//       Solve one HTA iteration and print (or export) the assignment.
//
//   hta simulate [--strategy gre|div|rel|random] [--sessions N]
//                [--minutes M] [--concurrent] [--seed S]
//       Run the online-deployment simulation for one strategy and
//       print quality / throughput / retention.
//
// All subcommands exit 0 on success and print errors to stderr.
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "assign/baselines.h"
#include "assign/hta_solver.h"
#include "io/catalog_io.h"
#include "sim/online_experiment.h"
#include "sim/worker_gen.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace hta;

/// Tiny --flag value parser: flags are "--name value" or bare
/// "--name" booleans.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        errors_.push_back("unexpected argument: " + arg);
        continue;
      }
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "";
      }
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) {
    seen_.insert(name);
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  long long GetInt(const std::string& name, long long fallback) {
    const std::string raw = Get(name, "");
    if (raw.empty()) return fallback;
    return std::atoll(raw.c_str());
  }
  double GetDouble(const std::string& name, double fallback) {
    const std::string raw = Get(name, "");
    if (raw.empty()) return fallback;
    return std::atof(raw.c_str());
  }
  bool Has(const std::string& name) {
    seen_.insert(name);
    return values_.find(name) != values_.end();
  }

  /// Returns false (and prints) if unknown flags or parse errors exist.
  bool Validate() const {
    bool ok = errors_.empty();
    for (const auto& e : errors_) std::cerr << "error: " << e << "\n";
    for (const auto& [name, value] : values_) {
      if (seen_.find(name) == seen_.end()) {
        std::cerr << "error: unknown flag --" << name << "\n";
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> seen_;
  std::vector<std::string> errors_;
};

int Usage() {
  std::cerr <<
      "usage:\n"
      "  hta generate --tasks-out FILE --workers-out FILE [--groups N]\n"
      "               [--tasks-per-group N] [--vocab N] [--workers N]\n"
      "               [--seed S]\n"
      "  hta solve    --tasks FILE --workers FILE [--xmax N]\n"
      "               [--algo app|gre] [--seed S] [--out FILE]\n"
      "  hta simulate [--strategy gre|div|rel|random] [--sessions N]\n"
      "               [--minutes M] [--concurrent] [--seed S]\n";
  return 2;
}

int RunGenerate(Flags& flags) {
  const std::string tasks_out = flags.Get("tasks-out", "");
  const std::string workers_out = flags.Get("workers-out", "");
  CatalogOptions catalog_options;
  catalog_options.num_groups =
      static_cast<size_t>(flags.GetInt("groups", 50));
  catalog_options.tasks_per_group =
      static_cast<size_t>(flags.GetInt("tasks-per-group", 20));
  catalog_options.vocabulary_size =
      static_cast<size_t>(flags.GetInt("vocab", 500));
  catalog_options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  WorkerGenOptions worker_options;
  worker_options.count = static_cast<size_t>(flags.GetInt("workers", 40));
  worker_options.seed = catalog_options.seed + 1;
  if (!flags.Validate()) return Usage();
  if (tasks_out.empty() || workers_out.empty()) {
    std::cerr << "error: --tasks-out and --workers-out are required\n";
    return 2;
  }

  auto catalog = GenerateCatalog(catalog_options);
  if (!catalog.ok()) {
    std::cerr << "error: " << catalog.status() << "\n";
    return 1;
  }
  auto workers = GenerateWorkers(worker_options, *catalog);
  if (!workers.ok()) {
    std::cerr << "error: " << workers.status() << "\n";
    return 1;
  }
  Status status = SaveCatalogCsv(*catalog, tasks_out);
  if (status.ok()) status = SaveWorkersCsv(*workers, catalog->space,
                                           workers_out);
  if (!status.ok()) {
    std::cerr << "error: " << status << "\n";
    return 1;
  }
  std::cout << "wrote " << catalog->size() << " tasks to " << tasks_out
            << " and " << workers->size() << " workers to " << workers_out
            << "\n";
  return 0;
}

int RunSolve(Flags& flags) {
  const std::string tasks_path = flags.Get("tasks", "");
  const std::string workers_path = flags.Get("workers", "");
  const size_t xmax = static_cast<size_t>(flags.GetInt("xmax", 10));
  const std::string algo = flags.Get("algo", "gre");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string out = flags.Get("out", "");
  if (!flags.Validate()) return Usage();
  if (tasks_path.empty() || workers_path.empty()) {
    std::cerr << "error: --tasks and --workers are required\n";
    return 2;
  }

  auto deployment = LoadDeployment(tasks_path, workers_path);
  if (!deployment.ok()) {
    std::cerr << "error: " << deployment.status() << "\n";
    return 1;
  }
  const Catalog* catalog = &deployment->catalog;
  const std::vector<Worker>* workers = &deployment->workers;
  auto problem = HtaProblem::Create(&catalog->tasks, workers, xmax);
  if (!problem.ok()) {
    std::cerr << "error: " << problem.status() << "\n";
    return 1;
  }

  HtaSolverOptions options;
  options.seed = seed;
  if (algo == "app") {
    options.lsap = LsapMethod::kExactJv;
  } else if (algo == "gre") {
    options.lsap = LsapMethod::kGreedy;
  } else {
    std::cerr << "error: unknown --algo '" << algo << "'\n";
    return 2;
  }
  auto result = SolveHta(*problem, options);
  if (!result.ok()) {
    std::cerr << "error: " << result.status() << "\n";
    return 1;
  }
  std::cout << SolverName(options) << ": motivation = "
            << FmtDouble(result->stats.motivation, 2) << ", assigned "
            << result->assignment.AssignedTaskCount() << " of "
            << catalog->size() << " tasks in "
            << FmtDouble(result->stats.total_seconds, 3) << " s\n";
  if (!out.empty()) {
    const Status status = SaveAssignmentCsv(result->assignment, *workers,
                                            catalog->tasks, out);
    if (!status.ok()) {
      std::cerr << "error: " << status << "\n";
      return 1;
    }
    std::cout << "assignment written to " << out << "\n";
  } else {
    for (size_t q = 0; q < workers->size() && q < 10; ++q) {
      std::cout << "  worker " << (*workers)[q].id() << ":";
      for (TaskIndex t : result->assignment.bundles[q]) {
        std::cout << " " << catalog->tasks[t].id();
      }
      std::cout << "\n";
    }
    if (workers->size() > 10) {
      std::cout << "  ... (" << workers->size() - 10
                << " more workers; use --out to export)\n";
    }
  }
  return 0;
}

int RunSimulate(Flags& flags) {
  const std::string strategy_name = flags.Get("strategy", "gre");
  OnlineExperimentOptions options;
  options.sessions_per_strategy =
      static_cast<size_t>(flags.GetInt("sessions", 8));
  options.session.max_minutes = flags.GetDouble("minutes", 15.0);
  options.concurrent_sessions = flags.Has("concurrent");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));
  if (!flags.Validate()) return Usage();

  StrategyKind kind;
  if (strategy_name == "gre") {
    kind = StrategyKind::kHtaGre;
  } else if (strategy_name == "div") {
    kind = StrategyKind::kHtaGreDiv;
  } else if (strategy_name == "rel") {
    kind = StrategyKind::kHtaGreRel;
  } else if (strategy_name == "random") {
    kind = StrategyKind::kRandom;
  } else {
    std::cerr << "error: unknown --strategy '" << strategy_name << "'\n";
    return 2;
  }
  options.strategies = {kind};

  const OnlineExperimentResult result = RunOnlineExperiment(options);
  const StrategyCurves& c = result.ForStrategy(kind);
  const double quality =
      c.total_questions > 0
          ? static_cast<double>(c.total_correct) / c.total_questions
          : 0.0;
  std::cout << "strategy " << StrategyName(kind) << " over "
            << options.sessions_per_strategy << " sessions ("
            << (options.concurrent_sessions ? "concurrent" : "sequential")
            << "):\n"
            << "  quality     " << FmtPercent(quality) << " ("
            << c.total_correct << "/" << c.total_questions
            << " questions)\n"
            << "  throughput  " << c.total_tasks << " tasks, "
            << FmtDouble(Summarize(c.tasks_per_session).mean, 1)
            << " per session\n"
            << "  retention   mean session "
            << FmtDouble(Summarize(c.session_duration_minutes).mean, 1)
            << " min of " << options.session.max_minutes << " allotted\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (command == "generate") return RunGenerate(flags);
  if (command == "solve") return RunSolve(flags);
  if (command == "simulate") return RunSimulate(flags);
  std::cerr << "error: unknown command '" << command << "'\n";
  return Usage();
}
