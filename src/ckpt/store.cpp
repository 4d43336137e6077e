#include "ckpt/store.hpp"

#include <stdexcept>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace swt {

namespace {

/// Store-level I/O telemetry: call counts, byte totals, the modelled PFS
/// cost distributions the virtual cluster charges to its event clock, and
/// one ckpt_read / ckpt_write lifecycle event per operation.
void record_io(const char* op, const std::string& key, const IoStats& stats) {
  const bool write = op[0] == 'w';
  if (metrics_enabled()) {
    MetricsRegistry& m = metrics();
    if (write) {
      m.counter("ckpt.put_total").add();
      m.counter("ckpt.bytes_written_total").add(static_cast<std::int64_t>(stats.bytes));
      m.histogram("ckpt.write_cost_seconds").observe(stats.cost_seconds);
    } else {
      m.counter("ckpt.get_total").add();
      m.counter("ckpt.bytes_read_total").add(static_cast<std::int64_t>(stats.bytes));
      m.histogram("ckpt.read_cost_seconds").observe(stats.cost_seconds);
    }
  }
  EventBus& bus = EventBus::global();
  if (bus.enabled())
    bus.emit(write ? EventType::kCkptWrite : EventType::kCkptRead, -1.0, -1, -1,
             {{"key", event_str(key)},
              {"bytes", std::to_string(stats.bytes)},
              {"cost_s", json_number(stats.cost_seconds)}});
}

}  // namespace

CheckpointStore::CheckpointStore(Backend backend, std::filesystem::path dir,
                                 PfsCostModel model, CompressionKind compression,
                                 BankConfig bank)
    : model_(model),
      bank_pricing_(bank.enabled),
      bank_(backend, std::move(dir), compression, bank.byte_budget) {}

IoStats CheckpointStore::put(const std::string& key, const Checkpoint& ckpt) {
  // Under bank pricing only first-seen chunk bytes plus the manifest travel
  // to the PFS.  bytes_moved() is a pure function of bank *content*, which
  // concurrent same-wavefront evals never share (distinct RNG streams +
  // training), so either price is order-independent and the trace stays
  // bit-reproducible across thread counts.
  const BankPutStats moved = bank_.put(key, ckpt);
  const std::size_t bytes =
      bank_pricing_ ? moved.bytes_moved() : serialized_size(ckpt, compression());
  const IoStats stats{bytes, model_.write_cost(bytes)};
  record_io("write", key, stats);
  std::scoped_lock lock(mutex_);
  total_written_ += bytes;
  return stats;
}

bool CheckpointStore::remove(const std::string& key) { return bank_.remove(key); }

std::optional<std::pair<Checkpoint, IoStats>> CheckpointStore::load(
    const std::string& key) const {
  std::size_t manifest_bytes = 0;
  std::optional<Checkpoint> ckpt = bank_.try_get(key, &manifest_bytes);
  if (!ckpt.has_value()) return std::nullopt;
  // The blob price is recomputed from the reassembled checkpoint: its size
  // depends only on names and shapes, so it equals what the put was charged.
  const std::size_t bytes =
      bank_pricing_ ? manifest_bytes : serialized_size(*ckpt, compression());
  const IoStats stats{bytes, model_.read_cost(bytes)};
  record_io("read", key, stats);
  return std::make_pair(*std::move(ckpt), stats);
}

std::pair<Checkpoint, IoStats> CheckpointStore::get(const std::string& key) const {
  std::optional<std::pair<Checkpoint, IoStats>> got = load(key);
  if (got.has_value()) return *std::move(got);
  if (!bank_.contains(key)) throw std::out_of_range("CheckpointStore: unknown key " + key);
  throw std::runtime_error("CheckpointStore: unreadable checkpoint " + key);
}

std::optional<std::pair<Checkpoint, IoStats>> CheckpointStore::try_get(
    const std::string& key) const {
  std::optional<std::pair<Checkpoint, IoStats>> got = load(key);
  if (!got.has_value() && metrics_enabled())
    metrics().counter("ckpt.read_miss_total").add();
  return got;
}

bool CheckpointStore::contains(const std::string& key) const { return bank_.contains(key); }

std::size_t CheckpointStore::count() const { return bank_.count(); }

std::size_t CheckpointStore::live_bytes() const {
  const BankStats s = bank_.stats();
  return s.resident_chunk_bytes + s.manifest_bytes;
}

std::size_t CheckpointStore::total_bytes_written() const {
  std::scoped_lock lock(mutex_);
  return total_written_;
}

}  // namespace swt
