// cfcm_serve: network daemon and client for the CFCM serving layer.
//
//   # daemon (default subcommand); prints one JSON line with the bound
//   # port, then serves until a client sends {"op":"shutdown"}:
//   cfcm_serve --port 7471 --preload karate=karate
//
//   # scripted client: --op builder flags or raw JSON lines
//   cfcm_serve client --port 7471 --op load --graph g --source karate
//   cfcm_serve client --port 7471 --op solve --graph g --k 3 --seed 7
//   cfcm_serve client --port 7471 --op mutate --graph g --remove 0,1
//   cfcm_serve client --port 7471 --op augment --graph g --group 0,33 --k 2
//   echo '{"op":"stats"}' | cfcm_serve client --port 7471
//
//   # in-process end-to-end check (used by ctest): load, solve twice,
//   # assert the second response is a byte-identical cache hit, then
//   # mutate -> guaranteed miss -> inverse delta -> hit again, and an
//   # augment round-trip
//   cfcm_serve selftest
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/watchdog.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using cfcm::Status;
using cfcm::StatusOr;
using cfcm::serve::HandlerOptions;
using cfcm::serve::JsonValue;
using cfcm::serve::ServeClient;
using cfcm::serve::ServeHandler;
using cfcm::serve::Server;
using cfcm::serve::ServerOptions;

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: cfcm_serve [serve] [options]        run the daemon\n"
      "       cfcm_serve client [options] [json ...]  send requests\n"
      "       cfcm_serve selftest                 in-process protocol check\n"
      "\n"
      "daemon options:\n"
      "  --host A            bind address (default 127.0.0.1)\n"
      "  --port N            TCP port; 0 = OS-assigned, printed on stdout\n"
      "  --workers N         request dispatch threads (default 2)\n"
      "  --queue N           admission queue bound (default 64)\n"
      "  --cache N           result cache capacity in entries (default 1024)\n"
      "  --memory-budget B   catalog byte budget; 0 = unlimited (default)\n"
      "  --threads N         shared sampling pool size; 0 = hardware\n"
      "  --preload NAME=SPEC define+load a graph at startup (repeatable)\n"
      "  --log-level L       structured stderr logging: debug/info/warn/\n"
      "                      error/off (default warn)\n"
      "  --slow-request-ms N warn-log requests slower than N ms (0 = off);\n"
      "                      also pins them in the flight recorder\n"
      "  --admin-port N      HTTP diagnostics port (/metrics /healthz\n"
      "                      /readyz /statusz /flightz); 0 = OS-assigned,\n"
      "                      printed on stdout; omit to disable\n"
      "  --slo SPEC          per-op latency objectives, e.g.\n"
      "                      solve=50ms,mutate=2s (us/ms/s suffixes)\n"
      "  --flight-capacity N flight-recorder ring size in records\n"
      "                      (default 1024; 0 disables the recorder)\n"
      "  --watchdog-ms N     gauge sampling period (default 1000; 0 =\n"
      "                      sample only on /metrics scrapes)\n"
      "\n"
      "client options:\n"
      "  --host A --port N   server address (port required)\n"
      "  --op OP             build a request: load/unload/solve/evaluate/\n"
      "                      mutate/augment/stats/metrics/shutdown, with\n"
      "                      --graph --source --algo --k --eps --seed\n"
      "                      --selection lazy|exhaustive (solve)\n"
      "                      --warm true|false|auto|on|off and\n"
      "                      --max-stale-epochs E (solve; DESIGN.md §16)\n"
      "                      --probes --group u1,u2,...\n"
      "                      mutate: --add u,v[,w] --remove u,v\n"
      "                      --reweight u,v,w (each repeatable) and\n"
      "                      --add-nodes N\n"
      "                      augment: --group --k --candidates group|any\n"
      "                      --apply true|false\n"
      "                      metrics: --format json|prometheus\n"
      "  --trace true|false  request an inline span breakdown (any op)\n"
      "  [json ...]          raw request lines; with no --op and no json\n"
      "                      arguments, lines are read from stdin\n"
      "\n"
      "Exit code: nonzero if any response has \"status\":\"error\".\n");
}

bool ParseLong(const std::string& s, long long* out) {
  return cfcm::ParseInt64(s, out);
}

bool ParseDoubleArg(const std::string& s, double* out) {
  return cfcm::ParseFloat64(s, out);
}

int RunServe(int argc, char** argv) {
  ServerOptions server_options;
  HandlerOptions handler_options;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    long long number = 0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--host") {
      server_options.host = need_value();
    } else if (arg == "--port" || arg == "--workers" || arg == "--queue" ||
               arg == "--cache" || arg == "--memory-budget" ||
               arg == "--threads" || arg == "--admin-port" ||
               arg == "--flight-capacity" || arg == "--watchdog-ms") {
      const char* value = need_value();
      if (!ParseLong(value, &number) || number < 0) {
        std::fprintf(stderr, "error: bad value for %s: '%s'\n", arg.c_str(),
                     value);
        return 2;
      }
      if (arg == "--port") {
        if (number > 65535) {
          std::fprintf(stderr, "error: --port must be in [0, 65535]\n");
          return 2;
        }
        server_options.port = static_cast<int>(number);
      }
      // Range-check BEFORE narrowing: 4294967297 must not wrap to 1.
      if ((arg == "--workers" || arg == "--threads" ||
           arg == "--watchdog-ms") &&
          number > std::numeric_limits<int>::max()) {
        std::fprintf(stderr, "error: %s must be in [0, %d], got '%s'\n",
                     arg.c_str(), std::numeric_limits<int>::max(), value);
        return 2;
      }
      if (arg == "--workers") {
        server_options.num_workers = static_cast<int>(number);
      }
      if (arg == "--queue") {
        server_options.max_queue = static_cast<std::size_t>(number);
      }
      if (arg == "--cache") {
        handler_options.cache_capacity = static_cast<std::size_t>(number);
      }
      if (arg == "--memory-budget") {
        handler_options.catalog.memory_budget_bytes =
            static_cast<std::size_t>(number);
      }
      if (arg == "--threads") {
        handler_options.catalog.num_threads = static_cast<int>(number);
      }
      if (arg == "--admin-port") {
        if (number > 65535) {
          std::fprintf(stderr, "error: --admin-port must be in [0, 65535]\n");
          return 2;
        }
        server_options.admin_port = static_cast<int>(number);
      }
      if (arg == "--flight-capacity") {
        handler_options.flight_capacity = static_cast<std::size_t>(number);
      }
      if (arg == "--watchdog-ms") {
        server_options.watchdog_interval_ms = static_cast<int>(number);
      }
    } else if (arg == "--slo") {
      const char* value = need_value();
      std::string slo_error;
      if (!cfcm::obs::ParseSloSpec(value, &handler_options.slo, &slo_error)) {
        std::fprintf(stderr, "error: --slo: %s\n", slo_error.c_str());
        return 2;
      }
    } else if (arg == "--log-level") {
      const char* value = need_value();
      cfcm::obs::LogLevel level = cfcm::obs::LogLevel::kWarn;
      if (!cfcm::obs::ParseLogLevel(value, &level)) {
        std::fprintf(stderr,
                     "error: --log-level expects debug/info/warn/error/off, "
                     "got '%s'\n",
                     value);
        return 2;
      }
      cfcm::obs::SetMinLogLevel(level);
    } else if (arg == "--slow-request-ms") {
      const char* value = need_value();
      // Bounded so the microsecond threshold below cannot overflow.
      if (!ParseLong(value, &number) || number < 0 ||
          number > std::numeric_limits<int64_t>::max() / 1000) {
        std::fprintf(stderr, "error: bad value for --slow-request-ms: '%s'\n",
                     value);
        return 2;
      }
      server_options.slow_request_ms = number;
      // The same threshold drives flight-recorder pinning, so the slow
      // requests the operator asked to be warned about are the ones held
      // in the reserved ring.
      if (number > 0) handler_options.flight_slow_us = number * 1000;
    } else if (arg == "--preload") {
      const std::string spec = need_value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "error: --preload expects NAME=SPEC, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      std::fprintf(stderr, "error: unknown daemon flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  // Block SIGTERM/SIGINT before any thread exists so every thread
  // inherits the mask and only the dedicated sigwait thread below ever
  // sees the signals — the POSIX-clean way to run nontrivial code (the
  // flight dump + graceful shutdown) on termination.
  sigset_t term_signals;
  sigemptyset(&term_signals);
  sigaddset(&term_signals, SIGTERM);
  sigaddset(&term_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &term_signals, nullptr);

  ServeHandler handler{handler_options};
  for (const auto& [name, spec] : preloads) {
    const JsonValue response = handler.Handle(JsonValue(JsonValue::Object{
        {"op", "load"}, {"graph", name}, {"source", spec}}));
    const JsonValue* status = response.Find("status");
    if (status == nullptr || status->as_string() != "ok") {
      std::fprintf(stderr, "error preloading '%s': %s\n", name.c_str(),
                   response.Serialize().c_str());
      return 1;
    }
  }

  Server server{&handler, server_options};
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  // One machine-readable line so wrappers can discover the bound ports.
  const JsonValue ready(JsonValue::Object{
      {"serving", true},
      {"host", server_options.host},
      {"port", server.port()},
      {"admin_port", server.admin_port()},
      {"graphs", static_cast<int64_t>(preloads.size())},
  });
  std::printf("%s\n", ready.Serialize().c_str());
  std::fflush(stdout);

  // On SIGTERM/SIGINT: dump the flight recorder (the post-hoc record of
  // what the daemon was doing when someone killed it), then shut down
  // gracefully. The dump goes to stderr as one JSON line per record.
  std::atomic<bool> dump_on_signal{true};
  std::thread signal_thread([&] {
    int sig = 0;
    if (sigwait(&term_signals, &sig) != 0) return;
    if (!dump_on_signal.load(std::memory_order_acquire)) return;
    cfcm::obs::LogEvent(cfcm::obs::LogLevel::kWarn, "terminating")
        .Int("signal", sig);
    if (cfcm::obs::FlightRecorder* flight = handler.flight_recorder()) {
      auto dump = [](const char* ring, const cfcm::obs::FlightRecord& record) {
        const JsonValue line(JsonValue::Object{
            {"event", "flight_record"},
            {"ring", ring},
            {"record", cfcm::serve::FlightRecordJson(record)},
        });
        std::fprintf(stderr, "%s\n", line.Serialize().c_str());
      };
      for (const auto& record :
           flight->Pinned(flight->options().pinned_capacity)) {
        dump("pinned", record);
      }
      for (const auto& record : flight->Recent(32)) dump("recent", record);
    }
    server.Shutdown();
  });

  server.Wait();
  // Wake the signal thread if no signal ever arrived (shutdown came via
  // the protocol op): disarm the dump, send ourselves the signal it is
  // sigwait-ing for, and join.
  dump_on_signal.store(false, std::memory_order_release);
  ::kill(::getpid(), SIGTERM);
  signal_thread.join();
  return 0;
}

// Parses "u,v" or "u,v,w" into a JSON edge tuple for the mutate op.
// `arity` is 2 (remove), 3 (reweight) or -3 (add: 2 or 3 elements).
StatusOr<JsonValue> ParseEdgeTuple(const std::string& key,
                                   const std::string& value, int arity) {
  const std::vector<std::string> parts = cfcm::SplitString(value, ',');
  const bool size_ok = arity < 0 ? parts.size() == 2 || parts.size() == 3
                                 : parts.size() == static_cast<std::size_t>(arity);
  if (!size_ok) {
    return Status::InvalidArgument(
        "--" + key + " expects " +
        (arity == 2 ? "u,v" : arity == 3 ? "u,v,w" : "u,v or u,v,w") +
        ", got '" + value + "'");
  }
  JsonValue::Array tuple;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i < 2) {
      long long id = 0;
      if (!ParseLong(parts[i], &id)) {
        return Status::InvalidArgument("bad node id in --" + key + ": '" +
                                       parts[i] + "'");
      }
      tuple.emplace_back(static_cast<int64_t>(id));
    } else {
      double weight = 0;
      if (!ParseDoubleArg(parts[i], &weight)) {
        return Status::InvalidArgument("bad weight in --" + key + ": '" +
                                       parts[i] + "'");
      }
      tuple.emplace_back(weight);
    }
  }
  return JsonValue(std::move(tuple));
}

// Builds one request from client --op flags; exits on malformed flags.
StatusOr<JsonValue> BuildRequest(const std::string& op,
                                 const std::vector<std::pair<std::string,
                                                             std::string>>&
                                     fields) {
  JsonValue::Object request{{"op", op}};
  for (const auto& [raw_key, value] : fields) {
    const std::string key = raw_key == "algo" ? "algorithm" : raw_key;
    if (key == "graph" || key == "source" || key == "algorithm" ||
        key == "candidates" || key == "format" || key == "trace-id" ||
        key == "selection") {
      request[key == "trace-id" ? "trace_id" : key] = value;
    } else if (key == "trace") {
      if (value != "true" && value != "false") {
        return Status::InvalidArgument("--trace expects true or false, got '" +
                                       value + "'");
      }
      request["trace"] = value == "true";
    } else if (key == "add" || key == "remove" || key == "reweight") {
      // Repeatable edge flags accumulate into the op's array field.
      const int arity = key == "remove" ? 2 : key == "reweight" ? 3 : -3;
      StatusOr<JsonValue> tuple = ParseEdgeTuple(key, value, arity);
      if (!tuple.ok()) return tuple.status();
      if (request.find(key) == request.end()) {
        request[key] = JsonValue(JsonValue::Array{});
      }
      request[key].array().push_back(std::move(*tuple));
    } else if (key == "add-nodes") {
      long long number = 0;
      if (!ParseLong(value, &number) || number < 0) {
        return Status::InvalidArgument("bad count for --add-nodes: '" +
                                       value + "'");
      }
      request["add_nodes"] = static_cast<int64_t>(number);
    } else if (key == "warm") {
      if (value == "true" || value == "false") {
        request["warm"] = value == "true";
      } else if (value == "auto" || value == "on" || value == "off") {
        request["warm"] = value;
      } else {
        return Status::InvalidArgument(
            "--warm expects true/false/auto/on/off, got '" + value + "'");
      }
    } else if (key == "max-stale-epochs") {
      long long number = 0;
      if (!ParseLong(value, &number) || number < 0) {
        return Status::InvalidArgument("bad count for --max-stale-epochs: '" +
                                       value + "'");
      }
      request["staleness"] = JsonValue(
          JsonValue::Object{{"max_epochs", static_cast<int64_t>(number)}});
    } else if (key == "apply") {
      if (value != "true" && value != "false") {
        return Status::InvalidArgument("--apply expects true or false, got '" +
                                       value + "'");
      }
      request["apply"] = value == "true";
    } else if (key == "k" || key == "seed" || key == "probes") {
      long long number = 0;
      if (!ParseLong(value.c_str(), &number)) {
        return Status::InvalidArgument("bad integer for --" + key + ": '" +
                                       value + "'");
      }
      request[key] = static_cast<int64_t>(number);
    } else if (key == "eps") {
      double number = 0;
      if (!ParseDoubleArg(value.c_str(), &number)) {
        return Status::InvalidArgument("bad number for --eps: '" + value +
                                       "'");
      }
      request[key] = number;
    } else if (key == "group") {
      JsonValue::Array group;
      std::size_t start = 0;
      while (start <= value.size()) {
        std::size_t end = value.find(',', start);
        if (end == std::string::npos) end = value.size();
        if (end > start) {
          long long id = 0;
          if (!ParseLong(value.substr(start, end - start).c_str(), &id)) {
            return Status::InvalidArgument("bad node id in --group");
          }
          group.emplace_back(static_cast<int64_t>(id));
        }
        start = end + 1;
      }
      request[key] = JsonValue(std::move(group));
    } else {
      return Status::InvalidArgument("unknown client flag --" + raw_key);
    }
  }
  return JsonValue(std::move(request));
}

int RunClient(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string op;
  std::vector<std::pair<std::string, std::string>> fields;
  std::vector<std::string> raw_lines;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--host") {
      host = need_value();
    } else if (arg == "--port") {
      long long number = 0;
      if (!ParseLong(need_value(), &number) || number <= 0 ||
          number > 65535) {
        std::fprintf(stderr, "error: bad --port\n");
        return 2;
      }
      port = static_cast<int>(number);
    } else if (arg == "--op") {
      op = need_value();
    } else if (arg.rfind("--", 0) == 0) {
      fields.emplace_back(arg.substr(2), need_value());
    } else {
      raw_lines.push_back(arg);
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "error: client requires --port\n");
    return 2;
  }
  if (op.empty() && !fields.empty()) {
    // Request flags without --op would otherwise be dropped silently and
    // the tool would block reading stdin.
    std::fprintf(stderr, "error: request flags like --%s require --op\n",
                 fields.front().first.c_str());
    return 2;
  }

  std::vector<std::string> requests = raw_lines;
  if (!op.empty()) {
    StatusOr<JsonValue> request = BuildRequest(op, fields);
    if (!request.ok()) {
      std::fprintf(stderr, "error: %s\n", request.status().ToString().c_str());
      return 2;
    }
    requests.push_back(request->Serialize());
  }
  if (requests.empty()) {
    // Pipe mode: one request line per stdin line.
    char line[1 << 16];
    while (std::fgets(line, sizeof(line), stdin) != nullptr) {
      std::string text = line;
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
      }
      if (!text.empty()) requests.push_back(std::move(text));
    }
  }

  StatusOr<ServeClient> client = ServeClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  int failures = 0;
  for (const std::string& request : requests) {
    Status sent = client->SendLine(request);
    if (!sent.ok()) {
      std::fprintf(stderr, "error: %s\n", sent.ToString().c_str());
      return 1;
    }
    StatusOr<std::string> response = client->ReadLine();
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", response->c_str());
    if (response->find("\"status\":\"error\"") != std::string::npos) {
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// In-process protocol check: proves the cache-hit determinism contract
// end to end over a real loopback socket, with no external orchestration.
int RunSelftest() {
  ServeHandler handler{{}};
  Server server{&handler, ServerOptions{.port = 0, .num_workers = 2}};
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "selftest: %s\n", started.ToString().c_str());
    return 1;
  }
  StatusOr<ServeClient> client =
      ServeClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "selftest: %s\n", client.status().ToString().c_str());
    return 1;
  }

  auto call = [&](const char* line) -> std::string {
    if (!client->SendLine(line).ok()) return "";
    StatusOr<std::string> response = client->ReadLine();
    return response.ok() ? *response : "";
  };

  const std::string solve_line =
      R"({"op":"solve","graph":"karate","algorithm":"forest","k":3,"seed":7})";
  const std::string loaded =
      call(R"({"op":"load","graph":"karate","source":"karate"})");
  const std::string first = call(solve_line.c_str());
  const std::string second = call(solve_line.c_str());

  std::printf("%s\n%s\n%s\n", loaded.c_str(), first.c_str(), second.c_str());
  if (loaded.find("\"status\":\"ok\"") == std::string::npos ||
      first.find("\"cache\":\"miss\"") == std::string::npos ||
      second.find("\"cache\":\"hit\"") == std::string::npos) {
    std::fprintf(stderr, "selftest: unexpected responses\n");
    return 1;
  }
  // Byte-identical apart from the cache marker: the determinism contract.
  std::string normalized_first = first;
  const std::size_t miss = normalized_first.find("\"cache\":\"miss\"");
  normalized_first.replace(miss, 14, "\"cache\":\"hit\"");
  if (normalized_first != second) {
    std::fprintf(stderr, "selftest: hit response differs from miss response\n");
    return 1;
  }

  // Dynamic sessions: a mutation changes the content fingerprint, so
  // the identical request line re-solves (cache miss); the inverse
  // delta restores the bytes and the original cached answer hits again.
  const std::string mutated =
      call(R"({"op":"mutate","graph":"karate","remove":[[0,1]]})");
  const std::string resolved = call(solve_line.c_str());
  const std::string reverted =
      call(R"({"op":"mutate","graph":"karate","add":[[0,1]]})");
  const std::string restored = call(solve_line.c_str());
  std::printf("%s\n%s\n%s\n%s\n", mutated.c_str(), resolved.c_str(),
              reverted.c_str(), restored.c_str());
  if (mutated.find("\"status\":\"ok\"") == std::string::npos ||
      mutated.find("\"epoch\":1") == std::string::npos ||
      resolved.find("\"cache\":\"miss\"") == std::string::npos ||
      reverted.find("\"status\":\"ok\"") == std::string::npos ||
      restored != second) {
    std::fprintf(stderr,
                 "selftest: mutate -> miss -> revert -> hit loop failed\n");
    server.Shutdown();
    return 1;
  }

  // Augment: the §VI edge-selection answer is servable.
  const std::string augmented =
      call(R"({"op":"augment","graph":"karate","group":[0,33],"k":1})");
  std::printf("%s\n", augmented.c_str());
  if (augmented.find("\"status\":\"ok\"") == std::string::npos ||
      augmented.find("\"added\":[[") == std::string::npos) {
    std::fprintf(stderr, "selftest: augment round-trip failed\n");
    server.Shutdown();
    return 1;
  }

  // Observability: a traced solve carries its span breakdown and echoes
  // the requested trace id; the metrics op has recorded solve latency.
  const std::string traced = call(
      R"({"op":"solve","graph":"karate","algorithm":"forest","k":3,"seed":7,)"
      R"("trace":true,"trace_id":"selftest-trace"})");
  const std::string metrics = call(R"({"op":"metrics"})");
  const std::string flightz = call(R"({"op":"flightz"})");
  server.Shutdown();
  std::printf("%s\n%s\n%s\n", traced.c_str(), metrics.c_str(),
              flightz.c_str());
  if (traced.find("\"trace_id\":\"selftest-trace\"") == std::string::npos ||
      traced.find("\"spans\":[") == std::string::npos ||
      traced.find("\"queue_wait\"") == std::string::npos) {
    std::fprintf(stderr, "selftest: traced solve missing span breakdown\n");
    return 1;
  }
  // Non-empty bucket list == at least one recorded solve latency sample.
  if (metrics.find("\"serve.solve.latency_us\":{\"buckets\":[[") ==
          std::string::npos ||
      metrics.find("\"serve.cache.hits\"") == std::string::npos) {
    std::fprintf(stderr, "selftest: metrics op missing solve latency\n");
    return 1;
  }
  // Flight recorder: every request above commits a record; the traced
  // solve must be findable by its trace id, and the pinned ring member
  // must be present in the answer (even if empty on a fast machine).
  if (flightz.find("\"trace_id\":\"selftest-trace\"") == std::string::npos ||
      flightz.find("\"pinned\":[") == std::string::npos) {
    std::fprintf(stderr, "selftest: flightz missing traced solve record\n");
    return 1;
  }
  std::printf("selftest ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "client") == 0) {
    return RunClient(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "selftest") == 0) {
    return RunSelftest();
  }
  const int skip = (argc > 1 && std::strcmp(argv[1], "serve") == 0) ? 2 : 1;
  return RunServe(argc - skip, argv + skip);
}
