#include "cluster/faults.hpp"

#include <cmath>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace swt {

namespace {

// Per-kind stream salts; distinct so e.g. the crash and straggler decisions
// of the same attempt are independent draws.
constexpr std::uint64_t kSaltCrash = 0xC4A5811DULL;
constexpr std::uint64_t kSaltStraggler = 0x57A661E2ULL;
constexpr std::uint64_t kSaltCkptWrite = 0xF417731EULL;
constexpr std::uint64_t kSaltCkptRead = 0xF4177EADULL;

/// Lifecycle events for injected checkpoint-I/O trouble: one ckpt_retry per
/// operation that saw failed tries, plus ckpt_give_up when the retry budget
/// ran out.  No-ops when the op succeeded first try or the bus is off.
void emit_retry_events(const char* op, const std::string& key, long eval_id,
                       const FaultInjectingStore::OpStats& st) {
  EventBus& bus = EventBus::global();
  if (!bus.enabled() || st.failed_tries == 0) return;
  bus.emit(EventType::kCkptRetry, -1.0, -1, eval_id,
           {{"op", event_str(op)},
            {"key", event_str(key)},
            {"failed_tries", std::to_string(st.failed_tries)},
            {"retry_s", json_number(st.retry_seconds)}});
  if (st.gave_up)
    bus.emit(EventType::kCkptGiveUp, -1.0, -1, eval_id,
             {{"op", event_str(op)}, {"key", event_str(key)}});
}

/// A miss on a key the store still *contains* means present-but-unreadable
/// content: a manifest whose chunk was evicted or failed its CRC.  Classify
/// it apart from plain never-written misses — this is the bank's
/// refetch/fallback path: the evaluator falls back to random init and a
/// later put of the same content re-materialises the chunk.
void classify_unreadable_miss(const CheckpointStore& inner, const std::string& key,
                              long eval_id) {
  if (!inner.contains(key)) return;
  if (metrics_enabled()) metrics().counter("ckpt.corrupt_fallback_total").add();
  log_warn("ckpt read: key ", key, " present but unreadable (eval ", eval_id,
           "); falling back to fresh initialisation");
}

}  // namespace

FaultModel::FaultModel(FaultConfig cfg) : cfg_(cfg) {
  if (cfg_.worker_recovery_s < 0.0)
    throw std::invalid_argument("FaultModel: worker_recovery_s must be >= 0");
  if (cfg_.max_attempts < 1)
    throw std::invalid_argument("FaultModel: max_attempts must be >= 1");
  if (cfg_.straggler_multiplier < 1.0)
    throw std::invalid_argument("FaultModel: straggler_multiplier must be >= 1");
  if (cfg_.max_io_retries < 0)
    throw std::invalid_argument("FaultModel: max_io_retries must be >= 0");
  if (cfg_.straggler_rate < 0.0 || cfg_.straggler_rate > 1.0 ||
      cfg_.ckpt_write_fault_rate < 0.0 || cfg_.ckpt_write_fault_rate > 1.0 ||
      cfg_.ckpt_read_fault_rate < 0.0 || cfg_.ckpt_read_fault_rate > 1.0)
    throw std::invalid_argument("FaultModel: fault rates must be in [0, 1]");
}

Rng FaultModel::stream(std::uint64_t salt, long eval_id, int attempt,
                       int k) const noexcept {
  const std::uint64_t id = static_cast<std::uint64_t>(eval_id);
  const std::uint64_t ak = mix64(static_cast<std::uint64_t>(attempt),
                                 static_cast<std::uint64_t>(k));
  return Rng(mix64(cfg_.seed, mix64(salt, mix64(id, ak))));
}

FaultModel::CrashDecision FaultModel::crash(long eval_id, int attempt,
                                            double compute_seconds) const {
  CrashDecision d;
  if (cfg_.mtbf_seconds <= 0.0 || compute_seconds <= 0.0) return d;
  Rng rng = stream(kSaltCrash, eval_id, attempt, 0);
  const double p = 1.0 - std::exp(-compute_seconds / cfg_.mtbf_seconds);
  d.crashed = rng.uniform() < p;
  // Keep the crash point away from the endpoints so "mid-evaluation" always
  // loses a visible amount of work and never the exact full duration.
  d.work_fraction = 0.05 + 0.90 * rng.uniform();
  return d;
}

double FaultModel::straggler_factor(long eval_id, int attempt) const {
  if (cfg_.straggler_rate <= 0.0) return 1.0;
  Rng rng = stream(kSaltStraggler, eval_id, attempt, 0);
  return rng.bernoulli(cfg_.straggler_rate) ? cfg_.straggler_multiplier : 1.0;
}

bool FaultModel::ckpt_write_fails(long eval_id, int attempt, int try_index) const {
  if (cfg_.ckpt_write_fault_rate <= 0.0) return false;
  Rng rng = stream(kSaltCkptWrite, eval_id, attempt, try_index);
  return rng.bernoulli(cfg_.ckpt_write_fault_rate);
}

bool FaultModel::ckpt_read_fails(long eval_id, int attempt, int try_index) const {
  if (cfg_.ckpt_read_fault_rate <= 0.0) return false;
  Rng rng = stream(kSaltCkptRead, eval_id, attempt, try_index);
  return rng.bernoulli(cfg_.ckpt_read_fault_rate);
}

double FaultModel::backoff_seconds(int try_index) const noexcept {
  double b = cfg_.retry_backoff_s;
  for (int i = 0; i < try_index; ++i) b *= cfg_.retry_backoff_multiplier;
  return b;
}

IoStats FaultInjectingStore::put(const std::string& key, const Checkpoint& ckpt) {
  op_ = {};
  if (!active()) return inner_->put(key, ckpt);
  // Failed tries are priced off the payload size (metadata/compression make
  // the exact wire size differ slightly; the estimate only prices lost work).
  const double est_cost = inner_->cost_model().write_cost(ckpt.payload_bytes());
  const int tries = model_->config().max_io_retries + 1;
  for (int t = 0; t < tries; ++t) {
    if (model_->ckpt_write_fails(eval_id_, attempt_, t)) {
      ++op_.failed_tries;
      op_.retry_seconds += est_cost + model_->backoff_seconds(t);
      continue;
    }
    if (op_.failed_tries > 0 && metrics_enabled()) {
      metrics().counter("ckpt.injected_write_failures_total").add(op_.failed_tries);
      metrics().gauge("ckpt.retry_seconds_total").add(op_.retry_seconds);
    }
    emit_retry_events("write", key, eval_id_, op_);
    return inner_->put(key, ckpt);
  }
  op_.gave_up = true;  // nothing stored: the candidate is not a provider
  if (metrics_enabled()) {
    metrics().counter("ckpt.injected_write_failures_total").add(op_.failed_tries);
    metrics().counter("ckpt.giveups_total").add();
    metrics().gauge("ckpt.retry_seconds_total").add(op_.retry_seconds);
  }
  emit_retry_events("write", key, eval_id_, op_);
  log_warn("ckpt write gave up after ", op_.failed_tries, " failed tries (eval ",
           eval_id_, ", key ", key, ")");
  return IoStats{};
}

std::optional<std::pair<Checkpoint, IoStats>> FaultInjectingStore::try_get(
    const std::string& key) {
  op_ = {};
  if (!active()) {
    auto real = inner_->try_get(key);
    if (!real.has_value()) classify_unreadable_miss(*inner_, key, eval_id_);
    return real;
  }
  // The underlying lookup happens once; injection decides how many modelled
  // tries it took to obtain (or give up on) that result.  A missing or
  // corrupt checkpoint fails immediately — retrying cannot heal it.
  auto real = inner_->try_get(key);
  if (!real.has_value()) {
    classify_unreadable_miss(*inner_, key, eval_id_);
    return std::nullopt;
  }
  const double est_cost = real->second.cost_seconds;
  const int tries = model_->config().max_io_retries + 1;
  for (int t = 0; t < tries; ++t) {
    if (model_->ckpt_read_fails(eval_id_, attempt_, t)) {
      ++op_.failed_tries;
      op_.retry_seconds += est_cost + model_->backoff_seconds(t);
      continue;
    }
    if (op_.failed_tries > 0 && metrics_enabled()) {
      metrics().counter("ckpt.injected_read_failures_total").add(op_.failed_tries);
      metrics().gauge("ckpt.retry_seconds_total").add(op_.retry_seconds);
    }
    emit_retry_events("read", key, eval_id_, op_);
    return real;
  }
  op_.gave_up = true;
  if (metrics_enabled()) {
    metrics().counter("ckpt.injected_read_failures_total").add(op_.failed_tries);
    metrics().counter("ckpt.giveups_total").add();
    metrics().gauge("ckpt.retry_seconds_total").add(op_.retry_seconds);
  }
  emit_retry_events("read", key, eval_id_, op_);
  log_warn("ckpt read gave up after ", op_.failed_tries, " failed tries (eval ",
           eval_id_, ", key ", key, ")");
  return std::nullopt;
}

}  // namespace swt
