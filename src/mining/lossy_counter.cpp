#include "mining/lossy_counter.hpp"

#include <cassert>
#include <cmath>

namespace aar::mining {

LossyCounter::LossyCounter(double epsilon) : epsilon_(epsilon) {
  assert(epsilon > 0.0 && epsilon < 1.0);
  bucket_width_ = static_cast<std::uint64_t>(std::ceil(1.0 / epsilon));
}

void LossyCounter::add(std::uint64_t key) {
  ++items_;
  auto [it, fresh] = table_.try_emplace(key);
  if (fresh) {
    it->second.count = 1;
    it->second.delta = current_bucket_ - 1;
  } else {
    ++it->second.count;
  }
  if (items_ % bucket_width_ == 0) {
    prune();
    ++current_bucket_;
  }
}

void LossyCounter::prune() {
  for (auto it = table_.begin(); it != table_.end();) {
    it = it->second.count + it->second.delta <= current_bucket_
             ? table_.erase(it)
             : std::next(it);
  }
}

std::uint64_t LossyCounter::count(std::uint64_t key) const {
  const auto it = table_.find(key);
  return it == table_.end() ? 0 : it->second.count;
}

std::uint64_t LossyCounter::upper_bound(std::uint64_t key) const {
  const auto it = table_.find(key);
  return it == table_.end() ? current_bucket_ - 1
                            : it->second.count + it->second.delta;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> LossyCounter::frequent(
    double support) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> result;
  const double threshold =
      (support - epsilon_) * static_cast<double>(items_);
  for (const auto& [key, entry] : table_) {
    if (static_cast<double>(entry.count) >= threshold) {
      result.emplace_back(key, entry.count);
    }
  }
  return result;
}

void LossyCounter::clear() {
  table_.clear();
  items_ = 0;
  current_bucket_ = 1;
}

}  // namespace aar::mining
