#include "nas/search_space.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace swt {

std::string arch_to_string(const ArchSeq& arch) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < arch.size(); ++i) {
    if (i) os << ", ";
    os << arch[i];
  }
  os << ']';
  return os.str();
}

std::uint64_t arch_hash(const ArchSeq& arch) {
  std::uint64_t h = 0x1234567890abcdefULL;
  for (int c : arch) h = mix64(h, static_cast<std::uint64_t>(c) + 1);
  return h;
}

int hamming_distance(const ArchSeq& a, const ArchSeq& b) {
  if (a.size() != b.size())
    throw std::invalid_argument("hamming_distance: sequences from different spaces");
  int d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += a[i] != b[i];
  return d;
}

std::uint64_t SearchSpace::cardinality() const noexcept {
  std::uint64_t total = 1;
  for (const auto& vn : vns) {
    const auto n = static_cast<std::uint64_t>(vn.choices.size());
    if (total > std::numeric_limits<std::uint64_t>::max() / n)
      return std::numeric_limits<std::uint64_t>::max();
    total *= n;
  }
  return total;
}

double SearchSpace::log10_cardinality() const noexcept {
  double l = 0.0;
  for (const auto& vn : vns) l += std::log10(static_cast<double>(vn.choices.size()));
  return l;
}

void SearchSpace::validate(const ArchSeq& arch) const {
  if (arch.size() != vns.size())
    throw std::invalid_argument("SearchSpace " + name + ": arch length " +
                                std::to_string(arch.size()) + " != #VNs " +
                                std::to_string(vns.size()));
  for (std::size_t i = 0; i < arch.size(); ++i) {
    if (arch[i] < 0 || static_cast<std::size_t>(arch[i]) >= vns[i].choices.size())
      throw std::invalid_argument("SearchSpace " + name + ": choice " +
                                  std::to_string(arch[i]) + " out of range for VN " +
                                  vns[i].name);
  }
}

namespace {

/// Build one linear segment (tower or trunk) from its slots.
std::unique_ptr<Sequential> build_segment(const SearchSpace& space, const ArchSeq& arch,
                                          const std::vector<Slot>& slots, Shape io_shape,
                                          const std::string& prefix, Shape* out_shape) {
  std::vector<LayerPtr> layers;
  int counter = 0;
  for (const auto& slot : slots) {
    const OpSpec& op = slot.is_variable()
                           ? space.vns[static_cast<std::size_t>(slot.vn_index)]
                                 .choices[static_cast<std::size_t>(
                                     arch[static_cast<std::size_t>(slot.vn_index)])]
                           : slot.fixed_op;
    instantiate_op(op, prefix + "l" + std::to_string(counter), io_shape, layers);
    ++counter;
  }
  if (out_shape != nullptr) *out_shape = io_shape;
  return std::make_unique<Sequential>(std::move(layers));
}

}  // namespace

NetworkPtr SearchSpace::build(const ArchSeq& arch) const {
  validate(arch);
  if (towers.empty()) throw std::logic_error("SearchSpace " + name + ": no towers defined");
  if (input_shapes.size() < towers.size())
    throw std::logic_error("SearchSpace " + name + ": missing input shapes");

  if (trunk.empty() && towers.size() == 1 && !extra_raw_input) {
    return build_segment(*this, arch, towers.front(), input_shapes.front(), "t0/", nullptr);
  }

  std::vector<std::unique_ptr<Sequential>> tower_nets;
  std::int64_t concat_width = 0;
  for (std::size_t t = 0; t < towers.size(); ++t) {
    Shape out_shape;
    tower_nets.push_back(build_segment(*this, arch, towers[t], input_shapes[t],
                                       std::string("t").append(std::to_string(t)) + "/",
                                       &out_shape));
    if (out_shape.rank() != 1)
      throw std::logic_error("SearchSpace " + name + ": tower " + std::to_string(t) +
                             " output must be rank-1, got " + out_shape.to_string());
    concat_width += out_shape[0];
  }
  if (extra_raw_input) {
    const Shape& raw = input_shapes[towers.size()];
    if (raw.rank() != 1)
      throw std::logic_error("SearchSpace " + name + ": raw trunk input must be rank-1");
    concat_width += raw[0];
  }
  auto trunk_net =
      build_segment(*this, arch, trunk, Shape{concat_width}, "trunk/", nullptr);
  return std::make_unique<MultiTowerNet>(std::move(tower_nets), std::move(trunk_net),
                                         extra_raw_input);
}

ArchSeq SearchSpace::random_arch(Rng& rng) const {
  ArchSeq arch(vns.size());
  for (std::size_t i = 0; i < vns.size(); ++i)
    arch[i] = static_cast<int>(rng.uniform_index(vns[i].choices.size()));
  return arch;
}

ArchSeq SearchSpace::mutate(const ArchSeq& arch, Rng& rng) const {
  validate(arch);
  std::vector<std::size_t> mutable_vns;
  for (std::size_t i = 0; i < vns.size(); ++i)
    if (vns[i].choices.size() > 1) mutable_vns.push_back(i);
  if (mutable_vns.empty())
    throw std::logic_error("SearchSpace " + name + ": no mutable variable nodes");
  const std::size_t vn = mutable_vns[rng.uniform_index(mutable_vns.size())];
  ArchSeq child = arch;
  const auto n_choices = static_cast<int>(vns[vn].choices.size());
  int pick = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n_choices - 1)));
  if (pick >= arch[vn]) ++pick;  // skip the current choice
  child[vn] = pick;
  return child;
}

std::string SearchSpace::describe(const ArchSeq& arch) const {
  validate(arch);
  std::ostringstream os;
  for (std::size_t i = 0; i < vns.size(); ++i) {
    if (i) os << "; ";
    os << vns[i].name << "="
       << vns[i].choices[static_cast<std::size_t>(arch[i])].to_string();
  }
  return os.str();
}

}  // namespace swt
