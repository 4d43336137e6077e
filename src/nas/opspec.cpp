#include "nas/opspec.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/misc.hpp"
#include "nn/pool.hpp"

namespace swt {

OpSpec OpSpec::dense(std::int64_t units) {
  OpSpec s;
  s.kind = OpKind::kDense;
  s.units = units;
  return s;
}

OpSpec OpSpec::dense(std::int64_t units, ActKind act) {
  OpSpec s = dense(units);
  s.fused_act = true;
  s.act = act;
  return s;
}

OpSpec OpSpec::conv2d(std::int64_t filters, std::int64_t kernel, Padding pad, float l2) {
  OpSpec s;
  s.kind = OpKind::kConv2D;
  s.filters = filters;
  s.kernel = kernel;
  s.pad = pad;
  s.l2 = l2;
  return s;
}

OpSpec OpSpec::conv1d(std::int64_t filters, std::int64_t kernel, Padding pad) {
  OpSpec s;
  s.kind = OpKind::kConv1D;
  s.filters = filters;
  s.kernel = kernel;
  s.pad = pad;
  return s;
}

OpSpec OpSpec::maxpool2d(std::int64_t pool, std::int64_t stride) {
  OpSpec s;
  s.kind = OpKind::kMaxPool2D;
  s.pool = pool;
  s.stride = stride;
  return s;
}

OpSpec OpSpec::maxpool1d(std::int64_t pool, std::int64_t stride) {
  OpSpec s;
  s.kind = OpKind::kMaxPool1D;
  s.pool = pool;
  s.stride = stride;
  return s;
}

OpSpec OpSpec::batchnorm() {
  OpSpec s;
  s.kind = OpKind::kBatchNorm;
  return s;
}

OpSpec OpSpec::dropout(double rate) {
  OpSpec s;
  s.kind = OpKind::kDropout;
  s.rate = rate;
  return s;
}

OpSpec OpSpec::activation(ActKind act) {
  OpSpec s;
  s.kind = OpKind::kActivation;
  s.act = act;
  return s;
}

OpSpec OpSpec::flatten() {
  OpSpec s;
  s.kind = OpKind::kFlatten;
  return s;
}

std::string OpSpec::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case OpKind::kIdentity: os << "Identity"; break;
    case OpKind::kDense:
      os << "Dense(" << units;
      if (fused_act) os << ", " << swt::to_string(act);
      os << ")";
      break;
    case OpKind::kConv2D:
      os << "Conv2D(" << filters << ", k" << kernel << ", " << swt::to_string(pad)
         << (l2 > 0 ? ", l2" : "") << ")";
      break;
    case OpKind::kConv1D:
      os << "Conv1D(" << filters << ", k" << kernel << ", " << swt::to_string(pad) << ")";
      break;
    case OpKind::kMaxPool2D: os << "MaxPool2D(" << pool << ", s" << stride << ")"; break;
    case OpKind::kMaxPool1D: os << "MaxPool1D(" << pool << ", s" << stride << ")"; break;
    case OpKind::kBatchNorm: os << "BatchNorm"; break;
    case OpKind::kDropout: os << "Dropout(" << rate << ")"; break;
    case OpKind::kActivation: os << "Activation(" << swt::to_string(act) << ")"; break;
    case OpKind::kFlatten: os << "Flatten"; break;
  }
  return os.str();
}

void instantiate_op(const OpSpec& spec, const std::string& name, Shape& io_shape,
                    std::vector<LayerPtr>& out) {
  switch (spec.kind) {
    case OpKind::kIdentity:
      return;  // contributes no layers and no parameters
    case OpKind::kDense: {
      if (io_shape.rank() > 1) {
        out.push_back(std::make_unique<Flatten>());
        io_shape = Shape{io_shape.numel()};
      }
      out.push_back(std::make_unique<Dense>(name, io_shape[0], spec.units, spec.l2));
      io_shape = Shape{spec.units};
      if (spec.fused_act) out.push_back(std::make_unique<Activation>(spec.act));
      return;
    }
    case OpKind::kConv2D: {
      if (io_shape.rank() != 3)
        throw std::invalid_argument("instantiate_op: Conv2D on non-image shape " +
                                    io_shape.to_string());
      Padding pad = spec.pad;
      if (pad == Padding::kValid &&
          (conv_out_extent(io_shape[0], spec.kernel, pad) <= 0 ||
           conv_out_extent(io_shape[1], spec.kernel, pad) <= 0))
        pad = Padding::kSame;  // guardrail: keep the candidate buildable
      out.push_back(std::make_unique<Conv2D>(name, spec.kernel, io_shape[2], spec.filters,
                                             pad, spec.l2));
      io_shape = Shape{conv_out_extent(io_shape[0], spec.kernel, pad),
                       conv_out_extent(io_shape[1], spec.kernel, pad), spec.filters};
      return;
    }
    case OpKind::kConv1D: {
      if (io_shape.rank() != 2)
        throw std::invalid_argument("instantiate_op: Conv1D on non-sequence shape " +
                                    io_shape.to_string());
      Padding pad = spec.pad;
      if (pad == Padding::kValid && conv_out_extent(io_shape[0], spec.kernel, pad) <= 0)
        pad = Padding::kSame;
      out.push_back(std::make_unique<Conv1D>(name, spec.kernel, io_shape[1], spec.filters,
                                             pad, spec.l2));
      io_shape = Shape{conv_out_extent(io_shape[0], spec.kernel, pad), spec.filters};
      return;
    }
    case OpKind::kMaxPool2D: {
      if (io_shape.rank() != 3)
        throw std::invalid_argument("instantiate_op: MaxPool2D on non-image shape " +
                                    io_shape.to_string());
      const std::int64_t oh = pool_out_extent(io_shape[0], spec.pool, spec.stride);
      const std::int64_t ow = pool_out_extent(io_shape[1], spec.pool, spec.stride);
      if (oh <= 0 || ow <= 0) return;  // guardrail: window no longer fits
      out.push_back(std::make_unique<MaxPool2D>(spec.pool, spec.stride));
      io_shape = Shape{oh, ow, io_shape[2]};
      return;
    }
    case OpKind::kMaxPool1D: {
      if (io_shape.rank() != 2)
        throw std::invalid_argument("instantiate_op: MaxPool1D on non-sequence shape " +
                                    io_shape.to_string());
      const std::int64_t olen = pool_out_extent(io_shape[0], spec.pool, spec.stride);
      if (olen <= 0) return;
      out.push_back(std::make_unique<MaxPool1D>(spec.pool, spec.stride));
      io_shape = Shape{olen, io_shape[1]};
      return;
    }
    case OpKind::kBatchNorm:
      out.push_back(std::make_unique<BatchNorm>(name, io_shape.back()));
      return;
    case OpKind::kDropout:
      out.push_back(std::make_unique<Dropout>(spec.rate));
      return;
    case OpKind::kActivation:
      out.push_back(std::make_unique<Activation>(spec.act));
      return;
    case OpKind::kFlatten:
      if (io_shape.rank() > 1) {
        out.push_back(std::make_unique<Flatten>());
        io_shape = Shape{io_shape.numel()};
      }
      return;
  }
  throw std::logic_error("instantiate_op: unknown op kind");
}

}  // namespace swt
