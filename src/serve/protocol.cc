#include "serve/protocol.h"

#include <cstdio>
#include <limits>
#include <optional>
#include <utility>
#include <variant>

#include "common/build_info.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace cfcm::serve {
namespace {

// Pulls an integer field with bounds [lo, hi]; `fallback` when absent.
// Requires an exact JSON integer: a double-stored number would reach
// as_int() through a float->int cast that is UB outside int64 range
// (1e300) and silently truncating inside it (3.7 -> 3).
StatusOr<int64_t> GetInt(const JsonValue& request, const std::string& key,
                         int64_t fallback, int64_t lo, int64_t hi) {
  const JsonValue* field = request.Find(key);
  if (field == nullptr) return fallback;
  if (!field->is_int()) {
    return Status::InvalidArgument("'" + key + "' must be an integer");
  }
  const int64_t value = field->as_int();
  if (value < lo || value > hi) {
    return Status::InvalidArgument("'" + key + "' out of range");
  }
  return value;
}

StatusOr<std::string> GetString(const JsonValue& request,
                                const std::string& key) {
  const JsonValue* field = request.Find(key);
  if (field == nullptr || !field->is_string() || field->as_string().empty()) {
    return Status::InvalidArgument("request needs a non-empty string '" + key +
                                   "'");
  }
  return field->as_string();
}

// A wire node id must fit NodeId exactly — a silent int64 -> int32 (or
// 0.9 -> 0) truncation would address a DIFFERENT, valid node or edge.
// Requiring the codec's exact-int64 storage also keeps huge doubles
// (1e300) away from any UB float->int cast.
StatusOr<NodeId> GetNodeId(const JsonValue& value, const std::string& field) {
  if (!value.is_int() || value.as_int() < 0 ||
      value.as_int() > std::numeric_limits<NodeId>::max()) {
    return Status::InvalidArgument(
        "'" + field + "' node ids must be integers in [0, " +
        std::to_string(std::numeric_limits<NodeId>::max()) + "]");
  }
  return static_cast<NodeId>(value.as_int());
}

// Optional "solver_backend" field (DESIGN.md §14); absent = auto.
StatusOr<SolverBackend> GetSolverBackend(const JsonValue& request) {
  const JsonValue* field = request.Find("solver_backend");
  if (field == nullptr) return SolverBackend::kAuto;
  if (field->is_string()) {
    if (const std::optional<SolverBackend> parsed =
            ParseSolverBackend(field->as_string())) {
      return *parsed;
    }
  }
  return Status::InvalidArgument(
      "'solver_backend' must be one of \"auto\", \"dense\" (alias "
      "\"full\"), \"sparse_ldlt\", \"cg\"");
}

StatusOr<std::vector<NodeId>> GetGroup(const JsonValue& request) {
  const JsonValue* field = request.Find("group");
  if (field == nullptr || !field->is_array()) {
    return Status::InvalidArgument("'group' must be an array of node ids");
  }
  std::vector<NodeId> group;
  group.reserve(field->array().size());
  for (const JsonValue& member : field->array()) {
    StatusOr<NodeId> id = GetNodeId(member, "group");
    if (!id.ok()) return id.status();
    group.push_back(*id);
  }
  return group;
}

// Edge-tuple lists for the mutate op: each element is [u, v] or
// [u, v, w]. `arity` fixes the accepted lengths — removals take no
// weight, reweights require one, additions accept either (default 1).
enum class EdgeArity { kPair, kPairOrWeighted, kWeighted };

StatusOr<std::vector<GraphDelta::Edge>> GetEdgeList(const JsonValue& request,
                                                    const std::string& key,
                                                    EdgeArity arity) {
  std::vector<GraphDelta::Edge> edges;
  const JsonValue* field = request.Find(key);
  if (field == nullptr) return edges;
  if (!field->is_array()) {
    return Status::InvalidArgument("'" + key +
                                   "' must be an array of [u,v] / [u,v,w]");
  }
  for (const JsonValue& member : field->array()) {
    if (!member.is_array()) {
      return Status::InvalidArgument("'" + key +
                                     "' entries must be arrays");
    }
    const JsonValue::Array& tuple = member.array();
    const bool pair_ok = arity != EdgeArity::kWeighted && tuple.size() == 2;
    const bool weighted_ok =
        arity != EdgeArity::kPair && tuple.size() == 3;
    if (!pair_ok && !weighted_ok) {
      return Status::InvalidArgument(
          "'" + key + "' entries must have " +
          (arity == EdgeArity::kPair
               ? std::string("2")
               : arity == EdgeArity::kWeighted ? std::string("3")
                                               : std::string("2 or 3")) +
          " elements");
    }
    GraphDelta::Edge edge;
    StatusOr<NodeId> u = GetNodeId(tuple[0], key);
    if (!u.ok()) return u.status();
    StatusOr<NodeId> v = GetNodeId(tuple[1], key);
    if (!v.ok()) return v.status();
    edge.u = *u;
    edge.v = *v;
    if (tuple.size() == 3) {
      if (!tuple[2].is_number()) {
        return Status::InvalidArgument("'" + key +
                                       "' weights must be numbers");
      }
      edge.weight = tuple[2].as_double();
    }
    edges.push_back(edge);
  }
  return edges;
}

// Graph identity block shared by load / mutate / augment responses,
// built from ONE (snapshot, epoch) pair so the fields are mutually
// consistent even while mutations land concurrently.
void AppendSessionSummary(const engine::GraphSession::VersionedSnapshot& pinned,
                          JsonValue::Object* response) {
  const engine::GraphSnapshot& snapshot = *pinned.snapshot;
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(snapshot.fingerprint()));
  (*response)["nodes"] = static_cast<int64_t>(snapshot.num_nodes());
  (*response)["edges"] = static_cast<int64_t>(snapshot.num_edges());
  (*response)["weighted"] = !snapshot.graph().is_unit_weighted();
  (*response)["connected"] = snapshot.is_connected();
  (*response)["bytes"] = static_cast<int64_t>(snapshot.memory_bytes());
  (*response)["fingerprint"] = std::string(fingerprint);
  (*response)["epoch"] = static_cast<int64_t>(pinned.epoch);
}

void EchoId(const JsonValue& request, JsonValue::Object* response) {
  if (const JsonValue* id = request.Find("id")) (*response)["id"] = *id;
  // A request-supplied trace id is echoed like "id" (a traced request
  // already wrote its own — possibly generated — trace_id; don't clobber
  // it).
  if (response->find("trace_id") == response->end()) {
    const JsonValue* trace_id = request.Find("trace_id");
    if (trace_id != nullptr && trace_id->is_string()) {
      (*response)["trace_id"] = *trace_id;
    }
  }
}

JsonValue OkResponse(JsonValue::Object fields) {
  fields["status"] = "ok";
  return JsonValue(std::move(fields));
}

JsonValue ErrorResponseFor(const JsonValue& request, const Status& status) {
  JsonValue::Object response;
  response["status"] = "error";
  response["error"] = StatusToJsonError(status);
  EchoId(request, &response);
  return JsonValue(std::move(response));
}

// Always-on per-op instrumentation, resolved once per op per process so
// the request hot path never takes the registry mutex.
struct OpMetrics {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::LatencyHistogram* latency_us;
};

OpMetrics ResolveOpMetrics(std::string_view op) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::string prefix = "serve." + std::string(op);
  return OpMetrics{&registry.counter(prefix + ".requests"),
                   &registry.counter(prefix + ".errors"),
                   &registry.histogram(prefix + ".latency_us")};
}

// The serve.<op>.* series of op-table entry `index`; one past the last
// entry (an unknown op) is serve.other.*.
const OpMetrics& MetricsFor(std::size_t index) {
  static const std::vector<OpMetrics> table = [] {
    std::vector<OpMetrics> resolved;
    for (std::string_view name : ServeHandler::OpNames()) {
      resolved.push_back(ResolveOpMetrics(name));
    }
    resolved.push_back(ResolveOpMetrics("other"));
    return resolved;
  }();
  return table[index];
}

// {"count","mean_us","p50_us","p95_us","p99_us","max_us"} for the stats
// latency block; pure function of one histogram snapshot.
JsonValue PercentilesJson(const obs::LatencyHistogram::Snapshot& h) {
  return JsonValue(JsonValue::Object{
      {"count", static_cast<int64_t>(h.count)},
      {"mean_us", h.Mean()},
      {"p50_us", h.Percentile(0.50)},
      {"p95_us", h.Percentile(0.95)},
      {"p99_us", h.Percentile(0.99)},
      {"max_us", h.max},
  });
}

// Full histogram rendering for the metrics op: percentiles plus the
// occupied [upper_edge, count] buckets.
JsonValue HistogramJson(const obs::LatencyHistogram::Snapshot& h) {
  JsonValue::Array buckets;
  for (int b = 0; b < obs::LatencyHistogram::kBuckets; ++b) {
    const uint64_t in_bucket = h.buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    const int64_t edge =
        b == 0 ? 0 : static_cast<int64_t>((uint64_t{1} << b) - 1);
    buckets.push_back(JsonValue(JsonValue::Array{
        JsonValue(edge), JsonValue(static_cast<int64_t>(in_bucket))}));
  }
  return JsonValue(JsonValue::Object{
      {"count", static_cast<int64_t>(h.count)},
      {"sum", h.sum},
      {"max", h.max},
      {"mean", h.Mean()},
      {"p50", h.Percentile(0.50)},
      {"p95", h.Percentile(0.95)},
      {"p99", h.Percentile(0.99)},
      {"buckets", JsonValue(std::move(buckets))},
  });
}

uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                      std::string_view name) {
  for (const auto& [n, v] : snapshot.counters) {
    if (n == name) return v;
  }
  return 0;
}

// The registry counters `stats` projects into its "observed" block. Each
// lands at its name's dotted path, a leading "serve." dropped:
// "serve.cache.hits" -> observed.cache.hits.
constexpr const char* kObservedCounters[] = {
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.evictions",
    "serve.catalog.loads",
    "serve.catalog.evictions",
    "serve.catalog.mutations",
    "engine.linalg.factorizations",
    "engine.linalg.solves",
    "engine.linalg.cg_iterations",
    "engine.incremental.forests_reused",
    "engine.incremental.forests_resampled",
    "engine.incremental.warm_starts",
    "engine.incremental.cold_fallbacks",
    "engine.incremental.swap_moves",
};

// Sets `value` at the dotted `path` under `root`, creating the
// intermediate objects.
void SetDotted(JsonValue::Object& root, std::string_view path,
               JsonValue value) {
  JsonValue::Object* node = &root;
  for (std::size_t dot = path.find('.'); dot != std::string_view::npos;
       path.remove_prefix(dot + 1), dot = path.find('.')) {
    JsonValue& child = (*node)[std::string(path.substr(0, dot))];
    if (!child.is_object()) child = JsonValue(JsonValue::Object{});
    node = &child.object();
  }
  (*node)[std::string(path)] = std::move(value);
}

// Renders the collected spans into the response. `pre_ns` is the time
// spent before the context existed (socket read + queue wait + parse),
// already present as AddSpan entries — it extends total_us, which spans
// are compared against, so "span sum ≈ total" holds across the whole
// request.
void AttachTrace(const obs::TraceContext& trace, int64_t pre_ns,
                 JsonValue::Object* response) {
  (*response)["trace_id"] = trace.trace_id();
  JsonValue::Array spans;
  for (const obs::TraceSpan& span : trace.spans()) {
    JsonValue::Object entry{
        {"name", span.name},
        {"start_us", span.start_ns / 1000},
        {"duration_us",
         (span.duration_ns < 0 ? int64_t{0} : span.duration_ns) / 1000},
    };
    for (const auto& [key, value] : span.annotations) entry[key] = value;
    spans.push_back(JsonValue(std::move(entry)));
  }
  (*response)["trace"] = JsonValue(JsonValue::Object{
      {"total_us", (pre_ns + trace.ElapsedNs()) / 1000},
      {"span_total_us", trace.SpanTotalNs() / 1000},
      {"spans", JsonValue(std::move(spans))},
  });
}

}  // namespace

std::string StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kNumericalError: return "numerical_error";
  }
  return "unknown";
}

JsonValue StatusToJsonError(const Status& status) {
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  return JsonValue(std::move(error));
}

JsonValue MakeErrorResponse(const Status& status, const JsonValue* id) {
  JsonValue::Object response;
  response["status"] = "error";
  response["error"] = StatusToJsonError(status);
  if (id != nullptr) response["id"] = *id;
  return JsonValue(std::move(response));
}

JsonValue MakeOverCapacityResponse() {
  return JsonValue(JsonValue::Object{
      {"status", "error"},
      {"error",
       JsonValue(JsonValue::Object{
           {"code", "over_capacity"},
           {"message", "admission queue full; retry later (429)"},
       })},
  });
}

ServeHandler::ServeHandler(HandlerOptions options)
    : options_(std::move(options)),
      catalog_(options_.catalog),
      cache_(options_.cache_capacity, options_.cache_shards) {
  if (options_.flight_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(obs::FlightRecorder::
        Options{options_.flight_capacity, options_.flight_pinned_capacity,
                options_.flight_slow_us});
  }
  if (!options_.slo.empty()) {
    slo_ = std::make_unique<obs::SloTracker>(options_.slo);
  }
  // Anchor process uptime at handler construction so the stats op and
  // /statusz report sensible uptime even before the first watchdog tick.
  obs::ProcessStartMonoNs();
}

std::span<const ServeHandler::Op> ServeHandler::Ops() {
  static constexpr Op kOps[] = {
      {"load", &ServeHandler::HandleLoad},
      {"unload", &ServeHandler::HandleUnload},
      {"solve", &ServeHandler::HandleSolve},
      {"evaluate", &ServeHandler::HandleEvaluate},
      {"mutate", &ServeHandler::HandleMutate},
      {"augment", &ServeHandler::HandleAugment},
      {"stats", &ServeHandler::HandleStats},
      {"metrics", &ServeHandler::HandleMetrics},
      {"flightz", &ServeHandler::HandleFlightz},
      {"shutdown", &ServeHandler::HandleShutdown},
  };
  return kOps;
}

std::vector<std::string_view> ServeHandler::OpNames() {
  std::vector<std::string_view> names;
  for (const Op& op : Ops()) names.push_back(op.name);
  return names;
}

JsonValue ServeHandler::HandleLine(std::string_view line) {
  return HandleLine(line, RequestInfo{}, nullptr);
}

JsonValue ServeHandler::HandleLine(std::string_view line,
                                   const RequestInfo& info,
                                   RequestOutcome* outcome) {
  Timer parse_timer;
  StatusOr<JsonValue> request = JsonValue::Parse(line);
  RequestInfo timed = info;
  timed.parse_ns += parse_timer.Nanos();
  if (!request.ok()) {
    if (outcome != nullptr) {
      outcome->ok = false;
      outcome->error_code = StatusCodeName(request.status().code());
    }
    return MakeErrorResponse(request.status(), nullptr);
  }
  return Handle(*request, timed, outcome);
}

JsonValue ServeHandler::Handle(const JsonValue& request) {
  return Handle(request, RequestInfo{}, nullptr);
}

JsonValue ServeHandler::Handle(const JsonValue& request,
                               const RequestInfo& info,
                               RequestOutcome* outcome) {
  if (!request.is_object()) {
    if (outcome != nullptr) {
      outcome->ok = false;
      outcome->error_code = "invalid_argument";
    }
    return MakeErrorResponse(
        Status::InvalidArgument("request must be a JSON object"), nullptr);
  }
  StatusOr<std::string> op = GetString(request, "op");
  if (!op.ok()) {
    if (outcome != nullptr) {
      outcome->ok = false;
      outcome->error_code = StatusCodeName(op.status().code());
    }
    return ErrorResponseFor(request, op.status());
  }

  // Opt-in tracing: spans only materialize in the RESPONSE when the
  // request asks. The flight recorder keeps an internal trace for every
  // request (it wants span timings) without ever attaching it — the
  // response bytes are identical whether the recorder is on or off,
  // which preserves the §11 byte-identical cache-hit contract. The
  // always-on path below (histogram + counters + flight commit) is the
  // one priced by the ≤2% overhead budget; the metrics kill switch
  // disables the flight trace too.
  const int64_t pre_ns = info.read_ns + info.queue_wait_ns + info.parse_ns;
  const JsonValue* trace_field = request.Find("trace");
  const bool want_trace = trace_field != nullptr && trace_field->is_bool() &&
                          trace_field->as_bool();
  const bool flight_on = flight_ != nullptr && obs::MetricsEnabled();
  std::optional<obs::TraceContext> trace;
  if (want_trace || flight_on) {
    trace.emplace();
    if (const JsonValue* id = request.Find("trace_id");
        id != nullptr && id->is_string()) {
      trace->set_trace_id(id->as_string());
    }
    // Transport phases finished before this context existed; place them
    // before its epoch so span offsets reflect the real timeline.
    if (info.read_ns > 0) trace->AddSpan("read", -pre_ns, info.read_ns);
    if (info.queue_wait_ns > 0) {
      trace->AddSpan("queue_wait", -(info.queue_wait_ns + info.parse_ns),
                     info.queue_wait_ns);
    }
    if (info.parse_ns > 0) trace->AddSpan("parse", -info.parse_ns,
                                          info.parse_ns);
  }
  obs::TraceContext* trace_ptr = trace.has_value() ? &*trace : nullptr;
  obs::FlightRecord record{};
  obs::FlightRecord* record_ptr = flight_on ? &record : nullptr;

  Timer timer;
  const std::span<const Op> ops = Ops();
  std::size_t index = 0;
  while (index < ops.size() && ops[index].name != *op) ++index;
  JsonValue response = [&]() -> JsonValue {
    if (index < ops.size()) {
      return (this->*ops[index].handle)(request, trace_ptr, record_ptr);
    }
    std::string expected;
    for (const Op& known : ops) {
      if (!expected.empty()) expected += '/';
      expected += known.name;
    }
    return ErrorResponseFor(
        request, Status::InvalidArgument("unknown op '" + *op +
                                         "' (expected " + expected + ")"));
  }();

  // Whole-request latency: transport phases plus the handler itself.
  const int64_t total_us = pre_ns / 1000 + timer.Micros();
  const OpMetrics& metrics = MetricsFor(index);
  metrics.requests->Add(1);
  metrics.latency_us->Record(total_us);

  const JsonValue* status = response.is_object() ? response.Find("status")
                                                 : nullptr;
  const bool ok = status != nullptr && status->is_string() &&
                  status->as_string() == "ok";
  if (!ok) metrics.errors->Add(1);
  std::string error_code;
  if (!ok) {
    const JsonValue* error = response.is_object() ? response.Find("error")
                                                  : nullptr;
    const JsonValue* code =
        error != nullptr && error->is_object() ? error->Find("code")
                                               : nullptr;
    if (code != nullptr && code->is_string()) error_code = code->as_string();
  }
  if (slo_ != nullptr) slo_->Record(*op, total_us, ok);

  if (record_ptr != nullptr) {
    record.set_op(*op);
    if (const JsonValue* graph = request.Find("graph");
        graph != nullptr && graph->is_string()) {
      record.set_graph(graph->as_string());
    }
    record.ok = ok ? 1 : 0;
    if (!ok) record.set_error_code(error_code);
    record.latency_us = total_us;
    record.queue_wait_us = info.queue_wait_ns / 1000;
    if (trace_ptr != nullptr) {
      record.set_trace_id(trace_ptr->trace_id());
      for (const obs::TraceSpan& span : trace_ptr->spans()) {
        if (span.nested) continue;
        record.AddSpan(span.name,
                       (span.duration_ns < 0 ? 0 : span.duration_ns) / 1000);
      }
    }
    flight_->Commit(record);
  }

  // Only a request that asked for tracing gets the trace (and its id)
  // echoed — the flight recorder's internal trace must not change a
  // single response byte.
  if (want_trace && trace_ptr != nullptr && response.is_object()) {
    AttachTrace(*trace_ptr, pre_ns, &response.object());
  }
  if (response.is_object()) EchoId(request, &response.object());

  if (outcome != nullptr) {
    outcome->op = *op;
    outcome->ok = ok;
    if (!ok) outcome->error_code = error_code;
    if (trace_ptr != nullptr) outcome->trace_id = trace_ptr->trace_id();
  }
  return response;
}

JsonValue ServeHandler::HandleLoad(const JsonValue& request,
                                   obs::TraceContext* trace,
                                   obs::FlightRecord* record) {
  StatusOr<std::string> name = GetString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<std::string> source = GetString(request, "source");
  if (!source.ok()) return ErrorResponseFor(request, source.status());

  Status defined = catalog_.Define(*name, *source);
  if (!defined.ok()) return ErrorResponseFor(request, defined);
  // Acquire eagerly so load errors surface on the load response, not on
  // the first solve.
  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("load_graph");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) {
    // A bad source would poison every future Acquire; drop it again.
    (void)catalog_.Forget(*name);
    return ErrorResponseFor(request, session.status());
  }
  JsonValue::Object response{{"op", "load"}, {"graph", *name}};
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  if (record != nullptr) record->epoch = pinned.epoch;
  AppendSessionSummary(pinned, &response);
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleUnload(const JsonValue& request,
                                     obs::TraceContext* /*trace*/,
                                     obs::FlightRecord* /*record*/) {
  StatusOr<std::string> name = GetString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  Status forgotten = catalog_.Forget(*name);
  if (!forgotten.ok()) return ErrorResponseFor(request, forgotten);
  return OkResponse({{"op", "unload"}, {"graph", *name}});
}

JsonValue ServeHandler::HandleSolve(const JsonValue& request,
                                    obs::TraceContext* trace,
                                    obs::FlightRecord* record) {
  StatusOr<std::string> name = GetString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<int64_t> k = GetInt(request, "k", 1, 1, 1'000'000'000);
  if (!k.ok()) return ErrorResponseFor(request, k.status());
  StatusOr<int64_t> seed = GetInt(request, "seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return ErrorResponseFor(request, seed.status());

  std::string algorithm = "forest";
  if (const JsonValue* field = request.Find("algorithm")) {
    if (!field->is_string()) {
      return ErrorResponseFor(
          request, Status::InvalidArgument("'algorithm' must be a string"));
    }
    algorithm = field->as_string();
  }
  double eps = 0.2;
  if (const JsonValue* field = request.Find("eps")) {
    if (!field->is_number()) {
      return ErrorResponseFor(
          request, Status::InvalidArgument("'eps' must be a number"));
    }
    // The engine checks the range (Engine::RunSolve).
    eps = field->as_double();
  }
  SelectionMode selection = SelectionMode::kLazy;
  if (const JsonValue* field = request.Find("selection")) {
    const std::optional<SelectionMode> parsed =
        field->is_string() ? ParseSelectionMode(field->as_string())
                           : std::nullopt;
    if (!parsed.has_value()) {
      return ErrorResponseFor(
          request, Status::InvalidArgument(
                       "'selection' must be \"lazy\" or \"exhaustive\""));
    }
    selection = *parsed;
  }
  StatusOr<SolverBackend> backend = GetSolverBackend(request);
  if (!backend.ok()) return ErrorResponseFor(request, backend.status());

  // Warm-start policy (DESIGN.md §16): "warm" is a bool (true = on,
  // false = off) or one of "auto"/"on"/"off". Default off — warm
  // results depend on the session's mutation history.
  cfcm::WarmMode warm_mode = cfcm::WarmMode::kOff;
  if (const JsonValue* field = request.Find("warm")) {
    if (field->is_bool()) {
      warm_mode = field->as_bool() ? cfcm::WarmMode::kOn : cfcm::WarmMode::kOff;
    } else if (field->is_string()) {
      const std::optional<cfcm::WarmMode> parsed =
          cfcm::ParseWarmMode(field->as_string());
      if (!parsed.has_value()) {
        return ErrorResponseFor(
            request, Status::InvalidArgument(
                         "'warm' must be a boolean or \"auto\"/\"on\"/"
                         "\"off\""));
      }
      warm_mode = *parsed;
    } else {
      return ErrorResponseFor(
          request, Status::InvalidArgument(
                       "'warm' must be a boolean or \"auto\"/\"on\"/\"off\""));
    }
  }
  // Staleness-tolerant cache mode: {"staleness":{"max_epochs":E}} lets
  // a miss answer from a ≤E-epoch-old cached entry, with the composed
  // Loewner bound of the intervening (reweight-only) deltas attached.
  int64_t max_stale_epochs = 0;
  if (const JsonValue* field = request.Find("staleness")) {
    if (!field->is_object()) {
      return ErrorResponseFor(
          request, Status::InvalidArgument(
                       "'staleness' must be an object {\"max_epochs\":E}"));
    }
    StatusOr<int64_t> max_epochs = GetInt(*field, "max_epochs", 0, 0, 64);
    if (!max_epochs.ok()) return ErrorResponseFor(request, max_epochs.status());
    max_stale_epochs = *max_epochs;
  }

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("acquire");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) return ErrorResponseFor(request, session.status());

  // Pin ONE snapshot for the whole request: the cache key's fingerprint
  // and the solve computation are guaranteed to describe the same graph
  // version even if a mutate lands mid-request — the cache-soundness
  // invariant under mutation (DESIGN.md §11). The "cache_lookup" span
  // covers the pin, the (lazily computed) fingerprint, and the probe.
  if (trace != nullptr) span = trace->BeginSpan("cache_lookup");
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  const std::shared_ptr<const engine::GraphSnapshot>& snapshot =
      pinned.snapshot;
  if (record != nullptr) record->epoch = pinned.epoch;
  const ResultCacheKey key{snapshot->fingerprint(), algorithm,
                           static_cast<int>(*k), eps,
                           static_cast<uint64_t>(*seed), selection,
                           *backend};
  std::string cache_state = "hit";
  std::optional<engine::SolveJobResult> solve = cache_.Lookup(key);
  if (trace != nullptr) {
    trace->Annotate("hit", solve.has_value() ? 1 : 0);
    trace->EndSpan(span);
  }

  // Stale-tolerant answer: on a miss, walk the session's epoch history
  // for a ≤max_epochs-old cached entry reachable through boundable
  // (reweight-only) transitions, composing the Loewner factors
  // C' ∈ [a·C, b·C] along the way (DESIGN.md §16).
  int64_t stale_depth = 0;
  double stale_lo = 1.0;
  double stale_hi = 1.0;
  if (!solve.has_value() && max_stale_epochs > 0) {
    const std::vector<engine::GraphSession::EpochRecord> history =
        (*session)->EpochHistory();
    double lo = 1.0;
    double hi = 1.0;
    uint64_t epoch_cursor = pinned.epoch;
    for (int64_t depth = 1; depth <= max_stale_epochs && epoch_cursor > 0;
         ++depth, --epoch_cursor) {
      const engine::GraphSession::EpochRecord* rec = nullptr;
      for (const auto& r : history) {
        if (r.epoch == epoch_cursor) {
          rec = &r;
          break;
        }
      }
      if (rec == nullptr || !rec->boundable) break;
      lo *= rec->cfcc_lo;
      hi *= rec->cfcc_hi;
      ResultCacheKey ancestor_key{rec->parent_fingerprint, algorithm,
                                  static_cast<int>(*k), eps,
                                  static_cast<uint64_t>(*seed), selection,
                                  *backend};
      std::optional<engine::SolveJobResult> stale =
          cache_.Lookup(ancestor_key);
      if (stale.has_value()) {
        solve = std::move(stale);
        cache_state = "stale";
        stale_depth = depth;
        stale_lo = lo;
        stale_hi = hi;
        break;
      }
    }
  }

  if (!solve.has_value()) {
    cache_state = "miss";
    engine::Engine engine{*session, options_.engine};
    engine::SolveJob job;
    job.algorithm = algorithm;
    job.k = static_cast<int>(*k);
    job.eps = eps;
    job.seed = static_cast<uint64_t>(*seed);
    job.selection = selection;
    job.solver_backend = *backend;
    job.warm = warm_mode;
    StatusOr<engine::JobResult> result = engine.Run(job, snapshot, trace);
    if (!result.ok()) return ErrorResponseFor(request, result.status());
    solve = std::get<engine::SolveJobResult>(std::move(*result));
    // A warm result depends on the session's mutation history, not just
    // the cache key — caching it would let it answer cold requests for
    // the same (fingerprint, params). Only cold results are cacheable.
    if (!solve->output.warm_started) {
      if (trace != nullptr) span = trace->BeginSpan("commit");
      cache_.Insert(key, *solve);
      if (trace != nullptr) trace->EndSpan(span);
    }
  }

  JsonValue::Object response = SolveJobResultJson(*solve);
  response["op"] = "solve";
  response["graph"] = *name;
  response["algorithm"] = algorithm;
  response["k"] = *k;
  response["eps"] = eps;
  response["seed"] = *seed;
  response["cache"] = cache_state;
  // "selection" (the chosen group) predates the mode field; the
  // strategy rides alongside as "selection_mode".
  response["selection_mode"] = SelectionModeName(selection);
  response["warm"] = cfcm::WarmModeName(warm_mode);
  if (cache_state == "stale") {
    // The answer describes an ancestor graph; the composed factors
    // bound the current C(S) of ITS group: C' ∈ [lo·C, hi·C].
    response["staleness"] = JsonValue(JsonValue::Object{
        {"epochs", stale_depth},
        {"cfcc_lo_factor", stale_lo},
        {"cfcc_hi_factor", stale_hi},
        {"cfcc_lo", stale_lo * solve->cfcc},
        {"cfcc_hi", stale_hi * solve->cfcc},
    });
  }
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleEvaluate(const JsonValue& request,
                                       obs::TraceContext* trace,
                                       obs::FlightRecord* record) {
  StatusOr<std::string> name = GetString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<int64_t> probes = GetInt(request, "probes", 0, 0, 1'000'000);
  if (!probes.ok()) return ErrorResponseFor(request, probes.status());
  StatusOr<int64_t> seed = GetInt(request, "seed", 1, 0, INT64_MAX);
  if (!seed.ok()) return ErrorResponseFor(request, seed.status());

  StatusOr<std::vector<NodeId>> group = GetGroup(request);
  if (!group.ok()) return ErrorResponseFor(request, group.status());
  StatusOr<SolverBackend> backend = GetSolverBackend(request);
  if (!backend.ok()) return ErrorResponseFor(request, backend.status());

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("acquire");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) return ErrorResponseFor(request, session.status());

  engine::Engine engine{*session, options_.engine};
  engine::EvaluateJob job;
  job.group = std::move(*group);
  job.probes = static_cast<int>(*probes);
  job.seed = static_cast<uint64_t>(*seed);
  job.solver_backend = *backend;
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  if (record != nullptr) record->epoch = pinned.epoch;
  StatusOr<engine::JobResult> result = engine.Run(job, pinned.snapshot, trace);
  if (!result.ok()) return ErrorResponseFor(request, result.status());
  const auto& eval = std::get<engine::EvaluateJobResult>(*result);

  JsonValue::Object response = EvaluateJobResultJson(eval);
  response["op"] = "evaluate";
  response["graph"] = *name;
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleMutate(const JsonValue& request,
                                     obs::TraceContext* trace,
                                     obs::FlightRecord* record) {
  StatusOr<std::string> name = GetString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  // Bounded per request: node additions allocate CSR arrays up front,
  // before the catalog's post-mutation byte re-charge can evict.
  StatusOr<int64_t> add_nodes =
      GetInt(request, "add_nodes", 0, 0, 1'000'000);
  if (!add_nodes.ok()) return ErrorResponseFor(request, add_nodes.status());
  StatusOr<std::vector<GraphDelta::Edge>> removes =
      GetEdgeList(request, "remove", EdgeArity::kPair);
  if (!removes.ok()) return ErrorResponseFor(request, removes.status());
  StatusOr<std::vector<GraphDelta::Edge>> reweights =
      GetEdgeList(request, "reweight", EdgeArity::kWeighted);
  if (!reweights.ok()) return ErrorResponseFor(request, reweights.status());
  StatusOr<std::vector<GraphDelta::Edge>> adds =
      GetEdgeList(request, "add", EdgeArity::kPairOrWeighted);
  if (!adds.ok()) return ErrorResponseFor(request, adds.status());

  GraphDelta delta;
  delta.AddNodes(static_cast<NodeId>(*add_nodes));
  for (const GraphDelta::Edge& e : *removes) delta.RemoveEdge(e.u, e.v);
  for (const GraphDelta::Edge& e : *reweights) {
    delta.ReweightEdge(e.u, e.v, e.weight);
  }
  for (const GraphDelta::Edge& e : *adds) delta.AddEdge(e.u, e.v, e.weight);
  if (delta.empty()) {
    return ErrorResponseFor(
        request, Status::InvalidArgument(
                     "mutate needs at least one of add_nodes/add/remove/"
                     "reweight"));
  }

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("commit");
  auto mutated = catalog_.Mutate(*name, delta);
  if (trace != nullptr) trace->EndSpan(span);
  if (!mutated.ok()) return ErrorResponseFor(request, mutated.status());
  if (record != nullptr) record->epoch = mutated->installed.epoch;

  JsonValue::Object response{
      {"op", "mutate"},
      {"graph", *name},
      {"applied",
       JsonValue(JsonValue::Object{
           {"add_nodes", *add_nodes},
           {"add", static_cast<int64_t>(adds->size())},
           {"remove", static_cast<int64_t>(removes->size())},
           {"reweight", static_cast<int64_t>(reweights->size())},
       })},
  };
  // Summarize the exact snapshot THIS delta installed — not the
  // session's current one, which a concurrent mutation may have
  // already replaced.
  AppendSessionSummary(mutated->installed, &response);
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleAugment(const JsonValue& request,
                                      obs::TraceContext* trace,
                                      obs::FlightRecord* record) {
  StatusOr<std::string> name = GetString(request, "graph");
  if (!name.ok()) return ErrorResponseFor(request, name.status());
  StatusOr<std::vector<NodeId>> group = GetGroup(request);
  if (!group.ok()) return ErrorResponseFor(request, group.status());
  StatusOr<int64_t> k = GetInt(request, "k", 1, 1, 1'000'000);
  if (!k.ok()) return ErrorResponseFor(request, k.status());

  EdgeCandidates candidates = EdgeCandidates::kToGroup;
  if (const JsonValue* field = request.Find("candidates")) {
    if (!field->is_string() ||
        (field->as_string() != "group" && field->as_string() != "any")) {
      return ErrorResponseFor(
          request,
          Status::InvalidArgument("'candidates' must be \"group\" or "
                                  "\"any\""));
    }
    if (field->as_string() == "any") candidates = EdgeCandidates::kAny;
  }
  bool apply = false;
  if (const JsonValue* field = request.Find("apply")) {
    if (!field->is_bool()) {
      return ErrorResponseFor(
          request, Status::InvalidArgument("'apply' must be a boolean"));
    }
    apply = field->as_bool();
  }
  StatusOr<SolverBackend> backend = GetSolverBackend(request);
  if (!backend.ok()) return ErrorResponseFor(request, backend.status());

  std::size_t span = 0;
  if (trace != nullptr) span = trace->BeginSpan("acquire");
  auto session = catalog_.Acquire(*name);
  if (trace != nullptr) trace->EndSpan(span);
  if (!session.ok()) return ErrorResponseFor(request, session.status());

  engine::Engine engine{*session, options_.engine};
  engine::AugmentJob job;
  job.group = std::move(*group);
  job.k = static_cast<int>(*k);
  job.candidates = candidates;
  job.solver_backend = *backend;
  const engine::GraphSession::VersionedSnapshot pinned =
      (*session)->versioned_snapshot();
  const std::shared_ptr<const engine::GraphSnapshot>& snapshot =
      pinned.snapshot;
  if (record != nullptr) record->epoch = pinned.epoch;
  // Re-derive the admission budget the engine will apply, so a refusal
  // can carry machine-readable details alongside the human message.
  const engine::AugmentBudget budget = engine::CheckAugmentBudget(
      options_.engine, snapshot->num_nodes(), job.group.size(), job.k,
      job.solver_backend, job.candidates);
  StatusOr<engine::JobResult> result = engine.Run(job, snapshot, trace);
  if (!result.ok()) {
    if (!budget.admitted) {
      JsonValue::Object error;
      error["code"] = StatusCodeName(result.status().code());
      error["message"] = result.status().message();
      error["details"] = JsonValue(JsonValue::Object{
          {"reason", "augment_work_budget"},
          {"backend", SolverBackendName(budget.backend)},
          {"n", static_cast<int64_t>(snapshot->num_nodes())},
          {"remaining", static_cast<int64_t>(budget.remaining)},
          {"limit", static_cast<int64_t>(budget.limit)},
          {"k", *k},
          {"k_limit", static_cast<int64_t>(budget.k_limit)},
      });
      JsonValue::Object response;
      response["status"] = "error";
      response["error"] = JsonValue(std::move(error));
      EchoId(request, &response);
      return JsonValue(std::move(response));
    }
    return ErrorResponseFor(request, result.status());
  }
  const auto& augment = std::get<engine::AugmentJobResult>(*result);

  JsonValue::Object response = AugmentJobResultJson(augment);
  response["op"] = "augment";
  response["graph"] = *name;
  response["k"] = *k;
  response["candidates"] =
      candidates == EdgeCandidates::kAny ? "any" : "group";
  // Mirrors the guard below: "applied" is true only when a mutation
  // actually lands (and the summary fields appear).
  response["applied"] = apply && !augment.added.empty();
  if (apply && !augment.added.empty()) {
    // Feed the chosen edges back through the mutation pipeline. A delta
    // racing in between merges by the parallel-conductor rule; the
    // summary below reflects the snapshot this apply installed.
    GraphDelta delta;
    for (const auto& [u, v] : augment.added) delta.AddEdge(u, v);
    if (trace != nullptr) span = trace->BeginSpan("commit");
    auto mutated = catalog_.Mutate(*name, delta);
    if (trace != nullptr) trace->EndSpan(span);
    if (!mutated.ok()) return ErrorResponseFor(request, mutated.status());
    if (record != nullptr) record->epoch = mutated->installed.epoch;
    AppendSessionSummary(mutated->installed, &response);
  }
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleStats(const JsonValue& /*request*/,
                                    obs::TraceContext* /*trace*/,
                                    obs::FlightRecord* /*record*/) {
  const ResultCacheStats cache = cache_.stats();
  JsonValue::Object cache_json{
      {"hits", cache.hits},
      {"misses", cache.misses},
      {"evictions", cache.evictions},
      {"entries", cache.entries},
      {"capacity", cache.capacity},
      {"shards", static_cast<int64_t>(cache.shards)},
  };

  const CatalogStats catalog = catalog_.stats();
  JsonValue::Array sessions;
  for (const CatalogSessionInfo& info : catalog.sessions) {
    sessions.push_back(JsonValue(JsonValue::Object{
        {"name", info.name},
        {"source", info.source},
        {"resident", info.resident},
        {"mutated", info.mutated},
        {"bytes", static_cast<int64_t>(info.bytes)},
        {"loads", info.loads},
        {"epoch", static_cast<int64_t>(info.epoch)},
    }));
  }
  JsonValue::Object catalog_json{
      {"loads", catalog.loads},
      {"evictions", catalog.evictions},
      {"mutations", catalog.mutations},
      {"resident_bytes", static_cast<int64_t>(catalog.resident_bytes)},
      {"sessions", JsonValue(std::move(sessions))},
  };

  // The coherence fix (ISSUE 6 bugfix): everything below comes from ONE
  // metrics-registry snapshot, and every total is derived from the parts
  // of that snapshot ("lookups" := hits + misses, never a third counter)
  // — so this block can't report hits+misses inconsistent with request
  // totals the way the independently locked per-instance reads above
  // can. Registry counters are process-wide; in the daemon (one handler
  // per process) the two views describe the same traffic.
  const obs::MetricsSnapshot observed = obs::MetricsRegistry::Global()
                                            .snapshot();
  JsonValue::Object requests_json;
  JsonValue::Object latency_json;
  for (const char* op : {"solve", "evaluate", "mutate", "augment"}) {
    const std::string prefix = std::string("serve.") + op;
    requests_json[op] = JsonValue(JsonValue::Object{
        {"total",
         static_cast<int64_t>(CounterValue(observed, prefix + ".requests"))},
        {"errors",
         static_cast<int64_t>(CounterValue(observed, prefix + ".errors"))},
    });
    for (const auto& [name, histogram] : observed.histograms) {
      if (name == prefix + ".latency_us") {
        latency_json[op] = PercentilesJson(histogram);
      }
    }
  }
  JsonValue::Object observed_json{
      {"requests", JsonValue(std::move(requests_json))},
      {"latency", JsonValue(std::move(latency_json))},
  };
  for (std::string_view metric : kObservedCounters) {
    const uint64_t value = CounterValue(observed, metric);
    if (metric.starts_with("serve.")) metric.remove_prefix(6);
    SetDotted(observed_json, metric, static_cast<int64_t>(value));
  }
  SetDotted(observed_json, "cache.lookups",
            static_cast<int64_t>(CounterValue(observed, "serve.cache.hits") +
                                 CounterValue(observed, "serve.cache.misses")));

  const BuildInfo& build = GetBuildInfo();
  JsonValue::Object response{
      {"op", "stats"},
      {"uptime_s", obs::ProcessUptimeSeconds()},
      {"build",
       JsonValue(JsonValue::Object{
           {"version", build.version},
           {"compiler", build.compiler},
           {"build_type", build.build_type},
           {"cxx_standard", build.cxx_standard},
       })},
      {"cache", JsonValue(std::move(cache_json))},
      {"catalog", JsonValue(std::move(catalog_json))},
      {"observed", JsonValue(std::move(observed_json))},
  };
  if (admission_ != nullptr) {
    response["server"] = JsonValue(JsonValue::Object{
        {"connections", admission_->connections.load()},
        {"accepted", admission_->accepted.load()},
        {"rejected", admission_->rejected.load()},
        {"served", admission_->served.load()},
    });
  }
  return OkResponse(std::move(response));
}

JsonValue ServeHandler::HandleMetrics(const JsonValue& request,
                                      obs::TraceContext* /*trace*/,
                                      obs::FlightRecord* /*record*/) {
  std::string format = "json";
  if (const JsonValue* field = request.Find("format")) {
    if (!field->is_string() || (field->as_string() != "json" &&
                                field->as_string() != "prometheus")) {
      return ErrorResponseFor(
          request, Status::InvalidArgument(
                       "'format' must be \"json\" or \"prometheus\""));
    }
    format = field->as_string();
  }

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().snapshot();
  if (format == "prometheus") {
    return OkResponse({
        {"op", "metrics"},
        {"format", "prometheus"},
        {"text", RenderPrometheus(snapshot)},
    });
  }

  JsonValue::Object counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters[name] = static_cast<int64_t>(value);
  }
  JsonValue::Object gauges;
  for (const auto& [name, value] : snapshot.gauges) gauges[name] = value;
  JsonValue::Object histograms;
  for (const auto& [name, histogram] : snapshot.histograms) {
    histograms[name] = HistogramJson(histogram);
  }
  return OkResponse({
      {"op", "metrics"},
      {"format", "json"},
      {"counters", JsonValue(std::move(counters))},
      {"gauges", JsonValue(std::move(gauges))},
      {"histograms", JsonValue(std::move(histograms))},
  });
}

JsonValue ServeHandler::HandleFlightz(const JsonValue& request,
                                      obs::TraceContext* /*trace*/,
                                      obs::FlightRecord* /*record*/) {
  if (flight_ == nullptr) {
    return ErrorResponseFor(
        request, Status::FailedPrecondition(
                     "flight recorder disabled (flight capacity 0)"));
  }
  StatusOr<int64_t> n = GetInt(request, "n", 64, 1, 4096);
  if (!n.ok()) return ErrorResponseFor(request, n.status());

  JsonValue::Object fields =
      FlightzJson(*flight_, static_cast<std::size_t>(*n));
  fields["op"] = "flightz";
  return OkResponse(std::move(fields));
}

JsonValue ServeHandler::HandleShutdown(const JsonValue& /*request*/,
                                       obs::TraceContext* /*trace*/,
                                       obs::FlightRecord* /*record*/) {
  shutdown_.store(true, std::memory_order_release);
  return OkResponse({{"op", "shutdown"}});
}

JsonValue::Object SolveJobResultJson(const engine::SolveJobResult& result) {
  const CfcmResult& output = result.output;
  JsonValue::Object fields;
  fields.emplace("selection", JsonValue::Array(output.selected.begin(),
                                               output.selected.end()));
  fields.emplace("cfcc", result.cfcc);
  for (const SolveCounter& counter : kSolveCounters) {
    fields.emplace(counter.key, output.*counter.field);
  }
  fields.emplace("warm_started", output.warm_started);
  fields.emplace("cold_fallback", output.cold_fallback);
  fields.emplace("solver_backend", output.solver_backend);
  fields.emplace("seconds", output.seconds);
  return fields;
}

JsonValue::Object EvaluateJobResultJson(
    const engine::EvaluateJobResult& result) {
  return {
      {"cfcc", result.cfcc},
      {"trace", result.trace},
      {"trace_std_error", result.trace_std_error},
      {"solver_backend", result.solver_backend},
  };
}

JsonValue::Object AugmentJobResultJson(const engine::AugmentJobResult& result) {
  JsonValue::Array added;
  added.reserve(result.added.size());
  for (const auto& [u, v] : result.added) {
    added.emplace_back(JsonValue::Array{static_cast<int64_t>(u),
                                        static_cast<int64_t>(v)});
  }
  JsonValue::Array trace_after(result.trace_after.begin(),
                               result.trace_after.end());
  JsonValue::Object fields;
  fields.emplace("added", std::move(added));
  fields.emplace("initial_trace", result.initial_trace);
  fields.emplace("trace_after", std::move(trace_after));
  fields.emplace("cfcc_before", result.cfcc_before);
  fields.emplace("cfcc_after", result.cfcc_after);
  fields.emplace("solver_backend", result.solver_backend);
  fields.emplace("seconds", result.seconds);
  return fields;
}

JsonValue::Object FlightzJson(const obs::FlightRecorder& flight,
                              std::size_t n) {
  JsonValue::Array records;
  for (const obs::FlightRecord& record : flight.Recent(n)) {
    records.push_back(FlightRecordJson(record));
  }
  JsonValue::Array pinned;
  for (const obs::FlightRecord& record : flight.Pinned(n)) {
    pinned.push_back(FlightRecordJson(record));
  }
  return JsonValue::Object{
      {"committed", flight.committed()},
      {"capacity", static_cast<int64_t>(flight.options().capacity)},
      {"pinned_capacity",
       static_cast<int64_t>(flight.options().pinned_capacity)},
      {"records", JsonValue(std::move(records))},
      {"pinned", JsonValue(std::move(pinned))},
  };
}

JsonValue FlightRecordJson(const obs::FlightRecord& record) {
  JsonValue::Array spans;
  for (int i = 0; i < record.num_spans; ++i) {
    spans.push_back(JsonValue(JsonValue::Object{
        {"name", std::string(record.spans[i].name)},
        {"us", record.spans[i].duration_us},
    }));
  }
  JsonValue::Object json{
      {"id", record.id},
      {"ts_ms", record.wall_ms},
      {"mono_ns", record.mono_ns},
      {"op", std::string(record.op)},
      {"graph", std::string(record.graph)},
      {"epoch", static_cast<int64_t>(record.epoch)},
      {"ok", record.ok != 0},
      {"trace_id", std::string(record.trace_id)},
      {"latency_us", record.latency_us},
      {"queue_wait_us", record.queue_wait_us},
      {"spans", JsonValue(std::move(spans))},
  };
  if (record.ok == 0) {
    json["error_code"] = std::string(record.error_code);
  }
  return JsonValue(std::move(json));
}

}  // namespace cfcm::serve
