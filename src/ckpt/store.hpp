// Checkpoint store with a parametric parallel-file-system cost model.
//
// The paper checkpoints every scored candidate to a PFS in HDF5 and reads the
// parent's checkpoint back before scoring a child (Section VI).  Here a store
// keeps checkpoints in the content-addressed weight bank, in memory or on
// disk, and *prices* each access with a latency + size/bandwidth model.  The
// price is returned to the caller (and accumulated), so the virtual cluster
// can charge checkpoint I/O to its event clock — which is exactly the
// overhead Fig. 10/11 studies — without the wall-clock noise of a real
// shared file system.
#pragma once

#include <cstddef>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "ckpt/weight_bank.hpp"

namespace swt {

/// Simple affine cost model: seconds = latency + bytes / bandwidth.
struct PfsCostModel {
  double write_latency_s = 0.020;
  double write_bandwidth_bps = 25e6;  ///< bytes per second (contended PFS)
  double read_latency_s = 0.020;
  double read_bandwidth_bps = 25e6;

  [[nodiscard]] double write_cost(std::size_t bytes) const noexcept {
    return write_latency_s + static_cast<double>(bytes) / write_bandwidth_bps;
  }
  [[nodiscard]] double read_cost(std::size_t bytes) const noexcept {
    return read_latency_s + static_cast<double>(bytes) / read_bandwidth_bps;
  }
};

struct IoStats {
  std::size_t bytes = 0;
  double cost_seconds = 0.0;  ///< modelled PFS time, not wall time
};

/// How the store prices PFS traffic.  Every store keeps its checkpoints in
/// the content-addressed weight bank (see weight_bank.hpp); `enabled` only
/// selects what the virtual clock is charged:
///   off - the paper's price (Section VI): every put and every get moves the
///         full blob, serialized_size(ckpt, compression), as if each scored
///         candidate were its own HDF5 file on the PFS;
///   on  - the bank's price: a put moves its manifest plus first-seen chunk
///         bytes, and a get (a provider lookup, whose chunks the parent's
///         evaluation just wrote) moves only the manifest.
struct BankConfig {
  bool enabled = false;
  std::size_t byte_budget = 0;  ///< resident chunk byte cap, 0 = unlimited
};

class CheckpointStore {
 public:
  using Backend = WeightBank::Backend;

  /// Disk backend persists under `dir` (created if missing; see WeightBank
  /// for the layout and reopen contract); memory backend ignores `dir`.
  /// `compression` applies to every put() (see compress.hpp).
  explicit CheckpointStore(Backend backend = Backend::kMemory,
                           std::filesystem::path dir = {}, PfsCostModel model = {},
                           CompressionKind compression = CompressionKind::kNone,
                           BankConfig bank = {});

  /// Serialize and store under `key` (overwrites); returns modelled cost.
  /// Disk puts are crash-consistent: chunks land before the manifest that
  /// roots them and every file is staged, fsynced and renamed into place,
  /// so a killed writer leaves either the old checkpoint or the new one.
  IoStats put(const std::string& key, const Checkpoint& ckpt);

  /// Delete `key` (and any staging debris a killed writer left beside it).
  /// Returns true when something was removed; unknown keys are a no-op.
  bool remove(const std::string& key);

  /// Load and decode; throws std::out_of_range for unknown keys and
  /// std::runtime_error for unreadable ones (evicted or corrupt chunk).
  [[nodiscard]] std::pair<Checkpoint, IoStats> get(const std::string& key) const;

  /// Non-throwing lookup: empty when the key is unknown or any chunk it
  /// references is evicted, missing or fails its CRC.
  [[nodiscard]] std::optional<std::pair<Checkpoint, IoStats>> try_get(
      const std::string& key) const;

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::size_t count() const;

  /// Priced bytes *moved to the PFS* by every put().  A cumulative traffic
  /// meter: an overwrite of an existing key counts again, and remove() does
  /// not retract — use live_bytes() for what the store currently holds.
  [[nodiscard]] std::size_t total_bytes_written() const;

  /// Bytes the store holds *right now*: resident chunk plus manifest bytes.
  /// Unlike the cumulative meter above, overwrites replace and removes
  /// retract.
  [[nodiscard]] std::size_t live_bytes() const;

  [[nodiscard]] const PfsCostModel& cost_model() const noexcept { return model_; }
  [[nodiscard]] CompressionKind compression() const noexcept { return bank_.compression(); }
  /// True when priced by the bank (BankConfig::enabled), false for full blobs.
  [[nodiscard]] bool bank_pricing() const noexcept { return bank_pricing_; }
  /// The content-addressed bank behind this store (never null).
  [[nodiscard]] const WeightBank* bank() const noexcept { return &bank_; }

 private:
  /// Reassemble `key` and price the read; empty on any bank miss.
  [[nodiscard]] std::optional<std::pair<Checkpoint, IoStats>> load(
      const std::string& key) const;

  PfsCostModel model_;
  bool bank_pricing_;
  /// Internally synchronised; mutable because a read updates its LRU ticks
  /// and drops chunks that fail their CRC.
  mutable WeightBank bank_;
  mutable std::mutex mutex_;  ///< guards total_written_
  std::size_t total_written_ = 0;
};

}  // namespace swt
