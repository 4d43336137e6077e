#include "exp/analysis.hpp"

#include <algorithm>

namespace swt {

std::map<long, int> lineage_depths(const Trace& trace) {
  std::map<long, int> depth;
  // Records are in completion order, so a parent is always processed before
  // any child that transferred from it.
  for (const auto& r : trace.records) {
    int d = 1;
    if (r.tensors_transferred > 0 && r.parent_id >= 0) {
      const auto it = depth.find(r.parent_id);
      if (it != depth.end()) d = it->second + 1;
    }
    depth[r.id] = d;
  }
  return depth;
}

LineageSummary summarize_lineage(const Trace& trace) {
  LineageSummary s;
  if (trace.records.empty()) return s;
  const auto depth = lineage_depths(trace);
  double sum = 0.0;
  int transferred = 0;
  for (const auto& r : trace.records) {
    const int d = depth.at(r.id);
    sum += d;
    s.max_depth = std::max(s.max_depth, d);
    transferred += r.tensors_transferred > 0;
  }
  s.mean_depth = sum / static_cast<double>(trace.records.size());
  s.transfer_fraction =
      static_cast<double>(transferred) / static_cast<double>(trace.records.size());
  return s;
}

ParentChildStats parent_child_stats(const Trace& trace) {
  ParentChildStats s;
  std::map<long, double> score_by_id;
  for (const auto& r : trace.records) score_by_id[r.id] = r.score;
  double delta_sum = 0.0;
  for (const auto& r : trace.records) {
    if (r.tensors_transferred == 0 || r.parent_id < 0) continue;
    const auto it = score_by_id.find(r.parent_id);
    if (it == score_by_id.end()) continue;
    ++s.pairs;
    const double delta = r.score - it->second;
    delta_sum += delta;
    if (delta > 0) ++s.child_improved;
  }
  if (s.pairs > 0) s.mean_delta = delta_sum / s.pairs;
  return s;
}

prof::CriticalPathInput critical_path_input(const Trace& trace) {
  prof::CriticalPathInput in;
  in.workers = trace.num_workers;
  in.evals.reserve(trace.records.size());
  for (const EvalRecord& r : trace.records) {
    prof::EvalSpan s;
    s.id = r.id;
    s.parent_id = r.tensors_transferred > 0 ? r.parent_id : -1;
    s.worker = r.worker;
    s.start = r.virtual_start;
    s.finish = r.virtual_finish;
    s.ready_at = std::max(r.virtual_finish, r.ckpt_available_at);
    // Same envelope split as emit_eval_spans: the stall and read lead, the
    // write charge and retries trail, transfer is the head of the compute.
    s.stall = r.ckpt_read_wait;
    s.ckpt_read = r.ckpt_read_cost;
    s.ckpt_write = r.ckpt_write_charged;
    s.ckpt_retry = r.retry_seconds;
    const double compute =
        std::max(0.0, (r.virtual_finish - r.virtual_start) - s.stall - s.ckpt_read -
                          s.ckpt_write - s.ckpt_retry);
    s.transfer = std::min(r.transfer_seconds, compute);
    s.train = compute - s.transfer;
    in.evals.push_back(std::move(s));
  }
  return in;
}

}  // namespace swt
