// Cross-run registry and regression detection.
//
// Li & Talwalkar ("Random Search and Reproducibility for NAS", PAPERS.md)
// argue NAS results are only trustworthy when every run's configuration,
// seed and outcome are recorded and comparable.  This module is that
// longitudinal layer: each nas_cli / runner invocation appends one summary
// record (config hash, seed, build id, top-K scores, makespan, fault
// counters, quality telemetry) as a JSON line to `<dir>/registry.ndjson`,
// and compare_records diffs a candidate run against a baseline, flagging
// score / makespan / overhead / reliability regressions beyond configurable
// thresholds — the check examples/compare_runs wires into CI.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"

namespace swt {

/// One completed run, as remembered by the registry.
struct RunRecord {
  std::string run_id;       ///< "<app>-<mode>-s<seed>-<millis>-<cfg hash>-<counter>"
  std::string timestamp;    ///< UTC, ISO 8601
  std::string git_describe; ///< $SWTNAS_GIT_DESCRIBE, or "unknown"
  std::string app;
  std::string mode;         ///< baseline | LP | LCS
  std::uint64_t seed = 0;
  long n_evals = 0;
  int workers = 0;
  std::string config_hash;  ///< hex digest over every behaviour-relevant knob

  // Outcome:
  double best_score = 0.0;
  std::vector<double> top_scores;  ///< top-K (K<=5) distinct-arch scores, descending
  double makespan = 0.0;           ///< virtual seconds
  double ckpt_overhead_s = 0.0;    ///< virtual seconds charged to checkpoint I/O
  double wall_seconds = 0.0;       ///< real time of the search
  long evals_completed = 0;

  // Reliability counters (Trace):
  long crashed_attempts = 0;
  long resubmissions = 0;
  long lost_evaluations = 0;
  long transfer_fallbacks = 0;

  // Quality telemetry snapshot:
  double transfer_hit_rate = 0.0;
  double kendall_tau_early_final = 0.0;
  double mean_lineage_depth = 0.0;

  // Weight-bank snapshot (all defaulted unless the run used bank pricing):
  bool bank_enabled = false;
  double bank_dedup_ratio = 1.0;      ///< logical / unique bytes written
  long bank_chunks = 0;               ///< distinct chunk contents at run end
  std::uint64_t bank_unique_bytes = 0;   ///< chunk bytes physically written
  std::uint64_t bank_logical_bytes = 0;  ///< chunk bytes logically referenced
  long bank_evictions = 0;
  /// Surviving checkpoint keys (chunk roots, capped at 64) — what a later
  /// run's --warm-start-from can fetch from this run's directory.
  std::vector<std::string> bank_roots;
};

/// Hex digest over the run configuration fields that change behaviour
/// (app, mode, evals, workers, seed, async/compression, fault knobs);
/// records with differing hashes are compared apples-to-oranges and
/// compare_runs warns about it.
[[nodiscard]] std::string config_hash(std::string_view app_name, const NasRunConfig& cfg);

/// The low `digits` hex digits of `v`, lowercase and zero-padded: config
/// hashes, journal frame CRCs and RNG state words all use this spelling.
[[nodiscard]] std::string to_hex(std::uint64_t v, int digits = 16);

/// Summarize a finished run.  Top-K scores, transfer hit rate and the
/// early-vs-final Kendall tau are recomputed from the trace so the record
/// is self-contained even when metrics were disabled.  A non-null `store`
/// under bank pricing additionally fills the bank snapshot (dedup ratio,
/// byte meters, surviving chunk roots); full-blob-priced runs omit it, so
/// their records keep the pre-bank format.
[[nodiscard]] RunRecord make_run_record(std::string_view app_name, const NasRunConfig& cfg,
                                        const Trace& trace, double wall_seconds,
                                        const CheckpointStore* store = nullptr);

/// One-line JSON form of a record / its inverse (throws std::runtime_error
/// on malformed input).
[[nodiscard]] std::string run_record_to_json(const RunRecord& rec);
[[nodiscard]] RunRecord parse_run_record(std::string_view json);

/// Append `rec` to `<dir>/registry.ndjson`, creating the directory on first
/// use.  Append-only: existing history is never rewritten.  Each record is
/// one O_APPEND write followed by an fsync, so concurrent appenders cannot
/// interleave and a killed appender can tear at most the final line.
void append_run_record(const std::string& dir, const RunRecord& rec);

/// All records in `<dir>/registry.ndjson`, oldest first; empty when the
/// registry does not exist yet.  A malformed *final* line (the torn record
/// of a killed appender) is skipped with a warning counted in `*warnings`
/// when that pointer is given; with a null `warnings`, and always for
/// malformed lines that have intact records after them, the reader throws
/// (a corrupt registry should be loud, not silently shortened).
[[nodiscard]] std::vector<RunRecord> read_registry(const std::string& dir,
                                                   std::size_t* warnings = nullptr);

/// Tolerances for compare_records; negative slack disables that check.
struct RegressionThresholds {
  double score_drop = 0.01;       ///< absolute drop of best / mean-top-K score
  double makespan_slack = 0.25;   ///< fractional makespan increase allowed
  double overhead_slack = 1.0;    ///< fractional ckpt-overhead increase allowed
  long extra_crashes = 0;         ///< crashed attempts allowed above baseline
  long extra_lost = 0;            ///< lost evaluations allowed above baseline
};

struct Regression {
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  std::string detail;
};

/// Diff `candidate` against `baseline`; every returned entry is a flagged
/// regression (empty = no regression).  Only worsening beyond the threshold
/// counts: improvements never flag.
[[nodiscard]] std::vector<Regression> compare_records(const RunRecord& baseline,
                                                      const RunRecord& candidate,
                                                      const RegressionThresholds& thr);

}  // namespace swt
