// Mini-batch training loop with per-epoch validation and the paper's early
// stopping rule: stop when the objective metric changes by no more than
// `min_delta` for `patience` consecutive epochs (Section VIII-B).
#pragma once

#include "data/dataset.hpp"
#include "nn/adam.hpp"
#include "nn/network.hpp"

namespace swt {

enum class ObjectiveKind { kAccuracy, kR2 };

[[nodiscard]] const char* to_string(ObjectiveKind o) noexcept;

struct TrainOptions {
  int epochs = 1;
  std::int64_t batch_size = 32;
  AdamConfig adam = {};
  ObjectiveKind objective = ObjectiveKind::kAccuracy;
  /// Early stopping (off when min_delta < 0).
  double early_stop_min_delta = -1.0;
  int early_stop_patience = 2;
};

struct TrainResult {
  double final_objective = 0.0;  ///< validation objective after the last epoch
  int epochs_run = 0;
  bool early_stopped = false;
  std::vector<double> history;   ///< validation objective per epoch
};

class Trainer {
 public:
  /// Train `net` (already initialised / weight-transferred) on `train`,
  /// validating on `val` after every epoch.  `rng` drives batch shuffling
  /// and dropout; it is the only source of randomness.
  [[nodiscard]] static TrainResult fit(Network& net, const Dataset& train,
                                       const Dataset& val, const TrainOptions& opts,
                                       Rng& rng);

  /// Validation objective in inference mode (batched).
  [[nodiscard]] static double evaluate(Network& net, const Dataset& data,
                                       ObjectiveKind objective,
                                       std::int64_t batch_size = 256);
};

}  // namespace swt
