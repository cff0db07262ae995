// Request/response protocol of the serving layer (DESIGN.md §10).
//
// One request or response per line, each a single JSON object. Ops:
//   load     {"op":"load","graph":<name>,"source":<spec>}
//   unload   {"op":"unload","graph":<name>}
//   solve    {"op":"solve","graph":<name>,"algorithm":<reg name>,
//             "k":<int>,"eps":<double>,"seed":<int>} — optional
//             "warm":true|false|"auto"|"on"|"off" runs the forest
//             solver's incremental warm-start pipeline (DESIGN.md §16;
//             warm results are never cached), and optional
//             "staleness":{"max_epochs":E} lets a cache miss answer
//             from a ≤E-epoch-old entry ("cache":"stale") with the
//             composed reweight bound C' ∈ [lo·C, hi·C] attached
//             under "staleness".
//   evaluate {"op":"evaluate","graph":<name>,"group":[ids],
//             "probes":<int>,"seed":<int>}
//   mutate   {"op":"mutate","graph":<name>,"add_nodes":<int>,
//             "add":[[u,v],[u,v,w],...],"remove":[[u,v],...],
//             "reweight":[[u,v,w],...]} — applies a GraphDelta
//             (removals, then reweights, then additions); the response
//             carries the new fingerprint/epoch/bytes. Result-cache
//             entries stay sound for free: the cache key is the content
//             fingerprint, which the mutation changes.
//   augment  {"op":"augment","graph":<name>,"group":[ids],"k":<int>,
//             "candidates":"group"|"any","apply":<bool>} — greedy edge
//             addition maximizing C(S) (paper §VI); with "apply":true
//             the chosen edges are applied as a mutation afterwards.
//             Dense algorithm: rejected when n - |group| or k exceeds
//             EngineOptions::augment_max_n.
//   stats    {"op":"stats"} — cache/catalog/server counters plus, from
//             one coherent metrics snapshot, per-op request totals,
//             latency percentiles and engine linear-algebra counters,
//             with uptime and build identification (DESIGN.md §12).
//   metrics  {"op":"metrics"} — full registry snapshot as JSON;
//             {"format":"prometheus"} returns a text-exposition
//             rendering in a "text" member instead.
//   flightz  {"op":"flightz","n":<int>} — the newest n (default 64)
//             flight-recorder entries plus the pinned slow/error ring
//             (DESIGN.md §15); same records as the admin plane's
//             /flightz endpoint.
//   shutdown {"op":"shutdown"}
// Every request may carry an "id" member, echoed verbatim in the
// response so pipelined clients can match replies; a string "trace_id"
// member is echoed the same way. Any solve/evaluate/mutate/augment/load
// request may carry "trace":true, which adds a "trace_id" (generated
// when the request did not supply one) and a "trace" object with the
// per-phase span breakdown to the response. Responses carry
// "status":"ok" or "status":"error" with {"error":{"code","message"}} —
// the same error object shape cfcm_cli emits under --json.
#ifndef CFCM_SERVE_PROTOCOL_H_
#define CFCM_SERVE_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "serve/catalog.h"
#include "serve/json.h"
#include "serve/result_cache.h"

namespace cfcm::serve {

/// Admission-control counters owned by the transport (Server) and
/// surfaced through the handler's `stats` op.
struct AdmissionStats {
  std::atomic<uint64_t> connections{0};  ///< connections accepted
  std::atomic<uint64_t> accepted{0};     ///< requests admitted to the queue
  std::atomic<uint64_t> rejected{0};     ///< requests refused 429-style
  std::atomic<uint64_t> served{0};       ///< responses written by workers
};

struct HandlerOptions {
  CatalogOptions catalog;
  std::size_t cache_capacity = 1024;
  int cache_shards = 8;
  engine::EngineOptions engine;

  /// Flight-recorder rings (DESIGN.md §15). capacity 0 disables the
  /// recorder entirely (no per-request commit, flightz answers an
  /// error).
  std::size_t flight_capacity = 1024;
  std::size_t flight_pinned_capacity = 128;
  /// Requests at least this slow are pinned; <= 0 pins errors only.
  int64_t flight_slow_us = 100'000;

  /// Per-op latency objectives (--slo); empty disables SLO tracking.
  std::vector<obs::SloObjective> slo;
};

/// The wire name of a Status code, e.g. "not_found" — shared by server
/// responses and cfcm_cli --json errors.
std::string StatusCodeName(StatusCode code);

/// `{"code":<name>,"message":<msg>}` for embedding under "error".
JsonValue StatusToJsonError(const Status& status);

/// A full error response line: status, error object, echoed id (may be
/// null).
JsonValue MakeErrorResponse(const Status& status, const JsonValue* id);

/// The transport's 429-style backpressure rejection:
/// {"status":"error","error":{"code":"over_capacity",...}}. Clients
/// match error.code == "over_capacity" to decide to retry later.
JsonValue MakeOverCapacityResponse();

/// Job-result projections: the codec fields of one engine result, the
/// single source of the solve / evaluate / augment result shape that
/// the serve responses and `cfcm_cli --json` both emit (DESIGN.md §6,
/// §10). Callers add only their request echo and their own fields.
///
/// Solve: "selection" (the group, in greedy order), "cfcc", every
/// kSolveCounters key, the warm-start outcome "warm_started" and
/// "cold_fallback" (DESIGN.md §16), "solver_backend" (the resolved
/// exact kernel; empty when the algorithm ran no exact algebra) and
/// "seconds" (the solver's time; a cache hit replays the original).
JsonValue::Object SolveJobResultJson(const engine::SolveJobResult& result);
/// Evaluate: "cfcc", "trace", "trace_std_error" (0 when exact) and
/// "solver_backend".
JsonValue::Object EvaluateJobResultJson(
    const engine::EvaluateJobResult& result);
/// Augment: "added" ([[u,v],...] in greedy order), "initial_trace",
/// "trace_after", "cfcc_before", "cfcc_after", "solver_backend" and
/// "seconds".
JsonValue::Object AugmentJobResultJson(const engine::AugmentJobResult& result);

/// Transport-measured phases of a request, handed to the handler so the
/// per-op latency histograms and traces cover the whole request, not
/// just the handler's slice. All nanoseconds; zero when unknown.
struct RequestInfo {
  int64_t read_ns = 0;        ///< socket read of the request line
  int64_t queue_wait_ns = 0;  ///< admission-queue wait before a worker
  int64_t parse_ns = 0;       ///< JSON parse (filled by HandleLine)
};

/// What the handler observed about a request, reported back so the
/// transport can log it without re-parsing the response.
struct RequestOutcome {
  std::string op;          ///< dispatched op; empty if unparseable
  bool ok = true;          ///< response carried status "ok"
  std::string error_code;  ///< error.code when !ok
  std::string trace_id;    ///< set when the request was traced
};

/// \brief Executes protocol requests against a SessionCatalog, a
/// ResultCache and the Engine. Transport-agnostic: the TCP server, the
/// selftest harness and unit tests all drive this one class.
///
/// Thread-safe — concurrent Handle calls are the normal serving mode
/// (catalog and cache synchronize internally; engine jobs share only
/// immutable session state).
class ServeHandler {
 public:
  explicit ServeHandler(HandlerOptions options = {});

  /// Executes one parsed request; never fails (errors become error
  /// responses).
  JsonValue Handle(const JsonValue& request);

  /// Same, with transport timing folded into the request's latency
  /// histogram/trace and the outcome reported back (both optional — the
  /// plain overload is Handle(request, {}, nullptr)).
  JsonValue Handle(const JsonValue& request, const RequestInfo& info,
                   RequestOutcome* outcome);

  /// Parses one protocol line and executes it; malformed JSON yields an
  /// invalid_argument error response.
  JsonValue HandleLine(std::string_view line);

  /// Line-level variant of the instrumented Handle; measures the JSON
  /// parse into info.parse_ns itself.
  JsonValue HandleLine(std::string_view line, const RequestInfo& info,
                       RequestOutcome* outcome);

  /// True once a shutdown request was handled; the transport drains and
  /// stops when it sees this.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Lets the transport surface its admission counters via `stats`.
  /// `stats` must outlive the handler.
  void set_admission_stats(const AdmissionStats* stats) {
    admission_ = stats;
  }

  SessionCatalog& catalog() { return catalog_; }
  ResultCache& cache() { return cache_; }

  /// Null when flight_capacity was 0.
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  /// Null when no SLO objectives were configured.
  obs::SloTracker* slo_tracker() { return slo_.get(); }

  /// Wire names of every protocol op, in op-table order. Each has its
  /// own serve.<op>.* metric series; any other op is counted under
  /// serve.other.*.
  static std::vector<std::string_view> OpNames();

 private:
  // One protocol op: its wire name and handler. Ops() is the protocol's
  // only op list: dispatch, the unknown-op message and the per-op
  // metric series all read it.
  using OpHandler = JsonValue (ServeHandler::*)(const JsonValue& request,
                                                obs::TraceContext* trace,
                                                obs::FlightRecord* record);
  struct Op {
    std::string_view name;
    OpHandler handle;
  };
  static std::span<const Op> Ops();

  JsonValue HandleLoad(const JsonValue& request, obs::TraceContext* trace,
                       obs::FlightRecord* record);
  JsonValue HandleUnload(const JsonValue& request, obs::TraceContext* trace,
                         obs::FlightRecord* record);
  JsonValue HandleSolve(const JsonValue& request, obs::TraceContext* trace,
                        obs::FlightRecord* record);
  JsonValue HandleEvaluate(const JsonValue& request, obs::TraceContext* trace,
                           obs::FlightRecord* record);
  JsonValue HandleMutate(const JsonValue& request, obs::TraceContext* trace,
                         obs::FlightRecord* record);
  JsonValue HandleAugment(const JsonValue& request, obs::TraceContext* trace,
                          obs::FlightRecord* record);
  JsonValue HandleStats(const JsonValue& request, obs::TraceContext* trace,
                        obs::FlightRecord* record);
  JsonValue HandleMetrics(const JsonValue& request, obs::TraceContext* trace,
                          obs::FlightRecord* record);
  JsonValue HandleFlightz(const JsonValue& request, obs::TraceContext* trace,
                          obs::FlightRecord* record);
  JsonValue HandleShutdown(const JsonValue& request, obs::TraceContext* trace,
                           obs::FlightRecord* record);

  HandlerOptions options_;
  SessionCatalog catalog_;
  ResultCache cache_;
  const AdmissionStats* admission_ = nullptr;
  std::atomic<bool> shutdown_{false};
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::SloTracker> slo_;
};

/// JSON rendering of one flight record ({"id","ts_ms","mono_ns","op",
/// "graph","epoch","ok","error_code","trace_id","latency_us",
/// "queue_wait_us","spans":[{"name","us"}]}) — shared by the flightz op,
/// the admin plane's /flightz endpoint, and the daemon's SIGTERM dump.
JsonValue FlightRecordJson(const obs::FlightRecord& record);

/// The flight recorder dump {"committed","capacity","pinned_capacity",
/// "records","pinned"} with the newest `n` records of each ring: the
/// body of the admin plane's /flightz page, and of the flightz op's
/// response (which adds "op" and "status").
JsonValue::Object FlightzJson(const obs::FlightRecorder& flight,
                              std::size_t n);

}  // namespace cfcm::serve

#endif  // CFCM_SERVE_PROTOCOL_H_
