#include "simthread/stack_pool.hpp"

namespace pm2::mth {

StackPool& StackPool::instance() {
  static StackPool pool;
  return pool;
}

StackPool::Stack StackPool::acquire(std::size_t size) {
  const std::size_t cls = ((size + kGranule - 1) / kGranule) * kGranule;
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = classes_.find(cls); it != classes_.end() && !it->second.empty()) {
    Stack s = std::move(it->second.back());
    it->second.pop_back();
    pooled_bytes_ -= s.size;
    ++reuses_;
    return s;
  }
  ++fresh_allocs_;
  // Left uninitialized: a fiber writes its frames before it reads them, and
  // the pages it never reaches are never touched, so a fresh stack commits
  // only what its fiber uses instead of all of it.
  return Stack{std::make_unique_for_overwrite<std::uint8_t[]>(cls), cls};
}

void StackPool::release(Stack s) {
  if (!s.mem) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Stack>& cache = classes_[s.size];
  if (cache.size() >= kMaxPooledPerClass) return;  // frees the stack
  pooled_bytes_ += s.size;
  cache.push_back(std::move(s));
}

void StackPool::trim() {
  std::lock_guard<std::mutex> lock(mu_);
  classes_.clear();
  pooled_bytes_ = 0;
}

}  // namespace pm2::mth
