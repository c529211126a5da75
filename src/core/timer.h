// Wall-clock stopwatch used by the runner, the benches and the examples.
#ifndef BIOSIM_CORE_TIMER_H_
#define BIOSIM_CORE_TIMER_H_

#include <chrono>

namespace biosim {

/// Monotonic wall-clock stopwatch with millisecond/microsecond readouts.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMs() const { return ElapsedSeconds() * 1e3; }
  double ElapsedUs() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_TIMER_H_
