// Monotonic (steady_clock) timing helpers used by benches, forest
// samplers, and the observability instrumentation. Nothing here reads
// the wall clock — measurements must not move when NTP steps the clock.
#ifndef CFCM_COMMON_TIMER_H_
#define CFCM_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace cfcm {

/// \brief Monotonic stopwatch.
///
/// Starts running on construction; `Restart()` resets the origin and
/// `Seconds()` reports the elapsed time without stopping the clock.
class Timer {
 public:
  Timer() { Restart(); }

  /// Resets the elapsed time to zero.
  void Restart();

  /// Elapsed monotonic seconds since construction or last Restart().
  double Seconds() const;

  /// Elapsed milliseconds.
  double Millis() const { return Seconds() * 1e3; }

  /// Elapsed whole nanoseconds / microseconds — the integer forms the
  /// observability layer records into histograms.
  int64_t Nanos() const;
  int64_t Micros() const { return Nanos() / 1000; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Nanoseconds on the monotonic clock since an arbitrary fixed origin.
/// Only differences between two calls are meaningful.
int64_t MonotonicNanos();

/// \brief Records a scope's duration into an int64 sink on destruction.
///
/// The sink outlives the timer by contract; units are nanoseconds.
///   { ScopedTimer t(&read_ns); ReadRequest(); }  // read_ns now set
class ScopedTimer {
 public:
  explicit ScopedTimer(int64_t* sink_ns) : sink_ns_(sink_ns) {}
  ~ScopedTimer() {
    if (sink_ns_ != nullptr) *sink_ns_ += timer_.Nanos();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  int64_t* sink_ns_;
  Timer timer_;
};

}  // namespace cfcm

#endif  // CFCM_COMMON_TIMER_H_
