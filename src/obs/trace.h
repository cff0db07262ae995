// Per-request tracing (DESIGN.md §12).
//
// A TraceContext is an opt-in, single-request span recorder: the serve
// handler creates one only when the request asks for it ("trace":true)
// or the CLI runs --verbose, threads a pointer through Engine down to the
// sampling runtime, and renders the collected spans into the response.
// A null TraceContext* everywhere means tracing is off and costs one
// pointer compare per instrumentation point — the always-on metrics in
// obs/metrics.h are the cheap path; spans are the detailed one.
//
// Spans are flat (name, start offset, duration, optional annotations)
// rather than a tree: request phases in this codebase are sequential, so
// a depth field would only ever be 0 or 1 and a flat list keeps the
// JSON rendering trivial and deterministic.
#ifndef CFCM_OBS_TRACE_H_
#define CFCM_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cfcm::obs {

/// Process-unique hex trace id (16 chars). Mixes a process-wide atomic
/// sequence number through splitmix64 so ids from concurrent workers
/// never collide and do not leak a raw counter.
std::string NextTraceId();

/// One timed request phase.
struct TraceSpan {
  std::string name;       ///< phase name, e.g. "solver", "queue_wait"
  int64_t start_ns = 0;   ///< offset from the context's epoch
  int64_t duration_ns = 0;
  bool nested = false;    ///< opened while another span was already open
  /// Phase-scoped measurements (e.g. {"edges_added", 2}).
  std::vector<std::pair<std::string, int64_t>> annotations;
};

/// \brief Span recorder for one request.
///
/// Not thread-safe — each request is traced by the worker that owns it.
/// Begin/End must nest like a stack; AddSpan records an already-measured
/// phase (used for socket read and queue wait, which finish before the
/// handler ever sees the request).
class TraceContext {
 public:
  TraceContext();

  const std::string& trace_id() const { return trace_id_; }
  void set_trace_id(std::string id) { trace_id_ = std::move(id); }

  /// Starts a phase; pair with EndSpan. Returns a token for sanity checks.
  std::size_t BeginSpan(std::string name);
  void EndSpan(std::size_t token);

  /// Records a phase that was timed externally. start_ns < 0 places the
  /// span before the context's epoch (socket read happened before the
  /// handler started).
  void AddSpan(std::string name, int64_t start_ns, int64_t duration_ns);

  /// Attaches a measurement to the innermost open span, or to the last
  /// closed one if nothing is open.
  void Annotate(std::string key, int64_t value);

  /// Nanoseconds since the context was created (monotonic clock).
  int64_t ElapsedNs() const;

  const std::vector<TraceSpan>& spans() const { return spans_; }
  /// Sum of all top-level span durations (nested spans excluded).
  int64_t SpanTotalNs() const;

 private:
  std::string trace_id_;
  int64_t epoch_ns_ = 0;           ///< steady_clock at construction
  std::vector<TraceSpan> spans_;   ///< completed + in-flight, open last
  std::vector<std::size_t> open_;  ///< indices of unclosed spans (stack)
};

}  // namespace cfcm::obs

#endif  // CFCM_OBS_TRACE_H_
