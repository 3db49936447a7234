// Wall-clock timing helper.
#pragma once

#include <chrono>

namespace nadmm {

/// Monotonic stopwatch. `seconds()` returns elapsed time since construction
/// or the last `reset()`.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace nadmm
