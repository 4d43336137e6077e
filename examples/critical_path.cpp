// Critical-path analysis of a search run: *why* is the makespan what it is?
//
// Reads a span trace (nas_cli --trace-out spans.json) and/or a candidate
// trace CSV (nas_cli --out trace.csv), reconstructs the virtual-timeline
// dispatch DAG, and reports:
//   - per-phase worker-second shares (train / transfer / ckpt / stall /
//     fault / idle) — the live-run form of the paper's Fig. 10/11,
//   - the critical path (binding predecessor chain ending at the last
//     evaluation) with its scheduler-wait gaps,
//   - the top-k blocking evaluations on that path,
//   - what-if speedup estimates (zero-cost checkpointing, free transfer,
//     no faults, perfect scheduling) — lower bounds by construction.
//
//   $ ./nas_cli --app mnist --mode lcs --evals 80 --out trace.csv
//               --trace-out spans.json
//   $ ./critical_path spans.json trace.csv   # both: cross-checks shares
//   $ ./critical_path trace.csv --json       # machine-readable report
//
// Without a file the example runs a small LCS search itself.  The process
// exits non-zero if any report's phase shares fail to sum to 100% +- 1%,
// which CI uses as the acceptance gate for the time-share decomposition.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/analysis.hpp"
#include "exp/apps.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "obs/prof/critical_path.hpp"
#include "obs/span_tracer.hpp"

namespace {

using namespace swt;

prof::CriticalPathInput load_input(const std::string& path) {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    return prof::critical_path_input_from_events(read_trace_json(in));
  }
  return critical_path_input(read_trace_csv(path));
}

/// Returns true when the phase shares pass the 100% +- 1% gate.
bool print_report(const std::string& label, const prof::CriticalPathReport& r) {
  print_banner(std::cout, "critical path: " + label);
  if (r.path.empty()) {
    std::cout << "no completed evaluations found.\n";
    return false;
  }
  print_phase_shares(std::cout, r);
  const double share_pct = r.share_sum * 100.0;
  const bool share_ok = std::abs(share_pct - 100.0) <= 1.0;
  std::cout << "share sum: " << TableReport::cell(share_pct, 2) << "% ("
            << (share_ok ? "PASS" : "FAIL") << ": must be 100% +- 1%)\n";

  std::cout << "\ncritical path: " << r.path.size() << " nodes, "
            << TableReport::cell(r.path_seconds, 2) << " s end-to-end, "
            << TableReport::cell(r.path_wait_seconds, 2)
            << " s of scheduler wait between nodes\n";
  TableReport blocking({"blocking eval", "busy s", "share of path"});
  for (const auto& [id, busy] : r.top_blocking)
    blocking.add_row({std::to_string(id), TableReport::cell(busy, 2),
                      TableReport::cell_pct(r.path_seconds > 0.0 ? busy / r.path_seconds
                                                                 : 0.0)});
  blocking.print(std::cout);

  std::cout << '\n';
  TableReport what_if({"what-if", "removes", "est. makespan", "est. speedup"});
  for (const prof::WhatIf& w : r.what_ifs)
    what_if.add_row({w.name, TableReport::cell(w.removed_seconds, 2) + " s",
                     TableReport::cell(w.est_makespan, 2) + " s",
                     TableReport::cell(w.est_speedup, 3) + "x"});
  what_if.print(std::cout);
  std::cout << "\nReading: \"bound_by parent\" hops mean transfer lineage gates the\n"
               "schedule (the paper's selective-transfer cost); a large\n"
               "zero_cost_checkpointing speedup reproduces the Fig. 10/11 claim\n"
               "that checkpoint I/O, not training, limits scaling.  Estimates are\n"
               "lower bounds: removing a cost never re-orders the schedule here.\n";
  return share_ok;
}

}  // namespace

int main(int argc, char** argv) try {
  bool json_out = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") json_out = true;
    else paths.push_back(arg);
  }

  std::vector<std::pair<std::string, prof::CriticalPathReport>> reports;
  if (paths.empty()) {
    std::cout << "No trace given; running an 80-candidate LCS search on MNIST...\n";
    const AppConfig app = make_app(AppId::kMnist, 23);
    NasRunConfig cfg;
    cfg.mode = TransferMode::kLCS;
    cfg.n_evals = 80;
    cfg.seed = 23;
    cfg.cluster.num_workers = 8;
    const NasRun run = run_nas(app, cfg);
    reports.emplace_back("in-memory run",
                         prof::analyze_critical_path(critical_path_input(run.trace)));
  } else {
    for (const std::string& path : paths)
      reports.emplace_back(path, prof::analyze_critical_path(load_input(path)));
  }

  if (json_out) {
    // Machine mode: emit only the JSON report(s), one per line, but keep
    // the phase-share gate so a broken decomposition still fails the run.
    bool ok = true;
    for (const auto& [label, report] : reports) {
      std::cout << prof::critical_path_json(report) << "\n";
      if (report.worker_seconds > 0.0)
        ok = ok && std::abs(report.share_sum - 1.0) <= 0.01;
    }
    return ok ? 0 : 1;
  }

  bool all_ok = true;
  for (const auto& [label, report] : reports)
    all_ok = print_report(label, report) && all_ok;

  // With both a span trace and a CSV of the same run, the two independent
  // reconstructions must agree on the train/checkpoint split.
  if (reports.size() == 2) {
    const auto share = [](const prof::CriticalPathReport& r, const char* phase) {
      const auto it = r.phase_seconds.find(phase);
      return it == r.phase_seconds.end() || r.worker_seconds <= 0.0
                 ? 0.0
                 : it->second / r.worker_seconds;
    };
    std::cout << "\ncross-check (|spans - csv| share):\n";
    for (const char* phase : {"train", "checkpoint"}) {
      const double d =
          std::abs(share(reports[0].second, phase) - share(reports[1].second, phase));
      const bool ok = d <= 0.02;
      std::cout << "  " << phase << " : " << TableReport::cell_pct(d) << " ("
                << (ok ? "PASS" : "FAIL") << ")\n";
      all_ok = all_ok && ok;
    }
  }
  return all_ok ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
