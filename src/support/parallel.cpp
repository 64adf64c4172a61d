#include "support/parallel.hpp"

#include <algorithm>
#include <thread>
#include <vector>

namespace bgpsim {

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_chunks(
    std::size_t n, unsigned workers,
    const std::function<void(unsigned worker, std::size_t begin,
                             std::size_t end)>& fn) {
  if (n == 0) return;
  if (workers <= 1) {
    fn(0, 0, n);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(std::min<std::size_t>(workers, n));  // never more threads than items
  const std::size_t chunk = (n + workers - 1) / workers;
  for (unsigned w = 0; w < workers; ++w) {
    const std::size_t begin = static_cast<std::size_t>(w) * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    pool.emplace_back([&fn, w, begin, end] { fn(w, begin, end); });
  }
  for (auto& worker : pool) worker.join();
}

}  // namespace bgpsim
