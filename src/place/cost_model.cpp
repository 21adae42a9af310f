#include "place/cost_model.hpp"

#include <algorithm>
#include <iterator>

namespace taf::place {

double q_factor(int pins) {
  static const double kQ[] = {1.0,    1.0,    1.0,    1.0828, 1.1536, 1.2206,
                              1.2823, 1.3385, 1.3991, 1.4493, 1.4974};
  if (pins <= 10) return kQ[std::max(0, pins)];
  return 1.4974 + (pins - 10) * 0.0264;
}

CostModel::CostModel(const pack::PackedNetlist& packed, Placement& pl)
    : packed_(packed), pl_(pl) {
  // Nets are visited in ascending order and each is added to a block at
  // most once, so every list ascends strictly (stage_move merges them).
  nets_of_block_.resize(packed_.blocks.size());
  auto add = [&](int block, int net) {
    std::vector<int>& nets = nets_of_block_[static_cast<std::size_t>(block)];
    if (nets.empty() || nets.back() != net) nets.push_back(net);
  };
  for (int n = 0; n < static_cast<int>(packed_.block_nets.size()); ++n) {
    const auto& bn = packed_.block_nets[static_cast<std::size_t>(n)];
    add(bn.driver_block, n);
    for (int s : bn.sink_blocks) add(s, n);
  }
  net_cost_.resize(packed_.block_nets.size());
  for (int n = 0; n < static_cast<int>(net_cost_.size()); ++n) {
    net_cost_[static_cast<std::size_t>(n)] = net_cost(n);
  }
}

double CostModel::net_cost(int net) const {
  const auto& bn = packed_.block_nets[static_cast<std::size_t>(net)];
  NetBox box;
  const arch::TilePos d = pl_.pos[static_cast<std::size_t>(bn.driver_block)];
  box.xmin = box.xmax = d.x;
  box.ymin = box.ymax = d.y;
  box.pins = 1 + static_cast<int>(bn.sink_blocks.size());
  for (int s : bn.sink_blocks) {
    const arch::TilePos p = pl_.pos[static_cast<std::size_t>(s)];
    box.xmin = std::min(box.xmin, p.x);
    box.xmax = std::max(box.xmax, p.x);
    box.ymin = std::min(box.ymin, p.y);
    box.ymax = std::max(box.ymax, p.y);
  }
  return box.cost();
}

double CostModel::total() const { return wirelength_cost(packed_, pl_); }

void CostModel::stage_move(int b1, int b2) {
  const std::vector<int>& nets1 = nets_of_block_[static_cast<std::size_t>(b1)];
  if (b2 < 0) {
    affected_ = nets1;
  } else {
    // Both lists ascend strictly, so their union is sorted and deduped.
    const std::vector<int>& nets2 = nets_of_block_[static_cast<std::size_t>(b2)];
    affected_.clear();
    std::set_union(nets1.begin(), nets1.end(), nets2.begin(), nets2.end(),
                   std::back_inserter(affected_));
  }

  staged_before_ = 0.0;
  for (int n : affected_) staged_before_ += net_cost_[static_cast<std::size_t>(n)];
}

double CostModel::staged_delta() {
  staged_after_.clear();
  double after = 0.0;
  for (int n : affected_) {
    staged_after_.push_back(net_cost(n));
    after += staged_after_.back();
  }
  return after - staged_before_;
}

void CostModel::commit_staged() {
  for (std::size_t i = 0; i < affected_.size(); ++i) {
    net_cost_[static_cast<std::size_t>(affected_[i])] = staged_after_[i];
  }
}

}  // namespace taf::place
