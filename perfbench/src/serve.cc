// Serve phases: an in-process parparawd on loopback, driven by
// RequestStream (Zipf-popular datasets, the default request mix) first as
// a closed loop of nproc clients, then as an open Poisson loop at the
// fixed kOpenLoopRate. Every reply is checked against the in-process
// reference for the same bytes.

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "columnar/ipc.h"
#include "exec/executor.h"
#include "ledger.h"
#include "loader/bulk_loader.h"
#include "serve/retry.h"
#include "util/stopwatch.h"
#include "workload/request_stream.h"

namespace perfbench {
namespace {

using parparaw::Request;
using parparaw::RequestKind;
using parparaw::RequestStream;
using parparaw::Stopwatch;
using parparaw::serve::RetryingClient;
using Clock = std::chrono::steady_clock;

parparaw::serve::RetryPolicy Policy(uint64_t seed) {
  parparaw::serve::RetryPolicy policy;
  policy.seed = seed;
  policy.max_attempts = 8;
  policy.base_delay_us = 200;
  policy.max_delay_us = 20'000;
  return policy;
}

const char* RttSpanName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kParse:
      return "serve.rtt.parse";
    case RequestKind::kStreamParse:
      return "serve.rtt.stream";
    case RequestKind::kQuery:
      return "serve.rtt.query";
    case RequestKind::kPing:
      return "serve.rtt.ping";
  }
  return "serve.rtt";
}

std::atomic<int64_t> g_next_request{1};

/// Sends `request` through `client`, times the round trip under a span
/// tagged with the request id, and checks the reply against the dataset's
/// in-process reference.
RoundTrip Issue(RetryingClient* client, const Request& request,
                const Workload& workload, Checker* checker) {
  RoundTrip trip;
  trip.kind = request.kind;
  trip.dataset = request.dataset % workload.datasets.size();
  const Dataset& d = workload.datasets[trip.dataset];
  const int64_t id = g_next_request.fetch_add(1);
  parparaw::serve::RequestOptions options;
  options.stream = request.kind == RequestKind::kStreamParse;
  parparaw::Status pinged;
  std::optional<parparaw::Result<parparaw::serve::ParseReply>> parsed;
  std::optional<parparaw::Result<parparaw::serve::QueryReply>> queried;
  {
    Span span(RttSpanName(request.kind), id);
    switch (request.kind) {
      case RequestKind::kPing:
        pinged = client->Ping();
        break;
      case RequestKind::kParse:
      case RequestKind::kStreamParse:
        parsed.emplace(client->Parse(d.bytes, options));
        break;
      case RequestKind::kQuery:
        queried.emplace(client->Query(d.bytes, QueryPredicate()));
        break;
    }
    trip.rtt_ms = span.ElapsedMs();
  }
  bool ok = false;
  if (request.kind == RequestKind::kPing) {
    ok = pinged.ok();
  } else if (parsed.has_value()) {
    const auto& reply = *parsed;
    if (reply.ok() && !reply->busy) {
      if (!options.stream) {
        ok = SameTable(reply->table, d.parse_ref);
      } else if (reply->parts_declared == reply->parts.size()) {
        ok = SameTable(reply->parts.size() == 1
                           ? reply->parts[0]
                           : parparaw::ConcatTables(reply->parts),
                       d.parse_ref);
      }
    }
  } else if (queried.has_value()) {
    const auto& reply = *queried;
    ok = reply.ok() && !reply->busy &&
         reply->records_scanned == d.query_scanned &&
         reply->records_selected == d.query_selected &&
         SameTable(reply->table, d.query_ref);
  }
  const std::string what =
      std::string(RttSpanName(request.kind)) + " " + d.label;
  checker->Record(ok, what);
  return trip;
}

/// Per-client results, merged after the threads join.
struct ClientLog {
  std::vector<RoundTrip> trips;
  Samples latency_ms, lateness_ms;
  std::vector<double> done_s;  // closed loop: completion, from loop start
  std::vector<std::pair<double, double>> due_latency;  // open loop: (due s, ms)
  parparaw::serve::RetryStats retry;
};

/// Closed-loop throughput is taken per window of about kRateWindowS and
/// open-loop latency per window of about kLatencyWindowS (about 40
/// requests at the fixed rate), so a spell of outside load spoils only
/// the windows it covers.
constexpr double kRateWindowS = 0.25;
constexpr double kLatencyWindowS = 1.0;

/// The number of whole windows of about `target_s` in `seconds`.
size_t WindowCount(double seconds, double target_s) {
  return std::max<size_t>(1, static_cast<size_t>(seconds / target_s + 0.5));
}

void Merge(const std::vector<ClientLog>& logs, ServeFigures* out,
           std::vector<RoundTrip>* trips) {
  for (const ClientLog& log : logs) {
    out->requests += log.retry.requests;
    out->attempts += log.retry.attempts;
    out->busy_sheds += log.retry.busy_sheds;
    out->backoff_ms += static_cast<double>(log.retry.backoff_us) / 1e3;
    if (trips != nullptr) {
      trips->insert(trips->end(), log.trips.begin(), log.trips.end());
    }
  }
}

RequestStream::Options StreamOptions(uint64_t seed, size_t datasets,
                                     double rate) {
  RequestStream::Options options;
  options.seed = seed;
  options.num_datasets = datasets;
  options.arrivals_per_sec = rate;
  return options;
}

/// Closed loop: `clients` threads issue back to back until `seconds`
/// elapse; adds the completed requests and the wall time to `out`.
void ClosedLoop(const Workload& workload, uint16_t port, int clients,
                uint64_t seed, double seconds, Checker* checker,
                ServeFigures* out) {
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Stopwatch wall;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      ClientLog& log = logs[static_cast<size_t>(t)];
      const uint64_t client_seed = seed * 7919 + 100 + static_cast<uint64_t>(t);
      RetryingClient client(port, Policy(client_seed));
      RequestStream stream(
          StreamOptions(client_seed, workload.datasets.size(), 0));
      while (Clock::now() < end) {
        log.trips.push_back(Issue(&client, stream.Next(), workload, checker));
        log.done_s.push_back(wall.ElapsedSeconds());
      }
      log.retry = client.stats();
      client.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  out->closed_seconds += wall.ElapsedSeconds();
  Merge(logs, out, nullptr);
  // A window's rate is its completions after the first over the time
  // from the first to the last, so that it is not rounded to whole
  // requests per window.
  const size_t windows = WindowCount(seconds, kRateWindowS);
  const double window_s = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> done(windows);
  for (const ClientLog& log : logs) {
    out->closed_requests += static_cast<int64_t>(log.trips.size());
    for (double t : log.done_s) {
      const size_t w = static_cast<size_t>(t / window_s);
      if (w < windows) done[w].push_back(t);
    }
  }
  for (const std::vector<double>& times : done) {
    if (times.size() < 2) continue;
    const auto [first, last] = std::minmax_element(times.begin(), times.end());
    if (*last > *first) {
      out->closed_window_rps.Add(static_cast<double>(times.size() - 1) /
                                 (*last - *first));
    }
  }
}

/// Open loop: one Poisson schedule at `rate` requests per second for
/// `seconds`, sent in schedule order by `senders` connections; a request
/// waits only when every connection is busy. Latency is timed from each
/// request's scheduled send time, so that wait counts.
void OpenLoop(const Workload& workload, uint16_t port, int senders,
              double rate, uint64_t seed, double seconds, Checker* checker,
              ServeFigures* out) {
  struct Due {
    Request request;
    Clock::duration at;
  };
  std::vector<Due> schedule;
  RequestStream stream(
      StreamOptions(seed * 7919 + 900, workload.datasets.size(), rate));
  for (double at_s = 0;;) {
    const Request request = stream.Next();
    at_s += static_cast<double>(request.inter_arrival_us) / 1e6;
    if (at_s >= seconds) break;
    schedule.push_back({request, std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(at_s))});
  }
  std::vector<ClientLog> logs(static_cast<size_t>(senders));
  std::vector<std::thread> threads;
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  for (int t = 0; t < senders; ++t) {
    threads.emplace_back([&, t] {
      ClientLog& log = logs[static_cast<size_t>(t)];
      RetryingClient client(
          port, Policy(seed * 7919 + 900 + static_cast<uint64_t>(t)));
      for (size_t i = next.fetch_add(1); i < schedule.size();
           i = next.fetch_add(1)) {
        const Clock::time_point due = start + schedule[i].at;
        std::this_thread::sleep_until(due);
        const double late_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        log.trips.push_back(
            Issue(&client, schedule[i].request, workload, checker));
        const double latency_ms = late_ms + log.trips.back().rtt_ms;
        log.lateness_ms.Add(late_ms);
        log.latency_ms.Add(latency_ms);
        log.due_latency.emplace_back(
            std::chrono::duration<double>(schedule[i].at).count(), latency_ms);
      }
      log.retry = client.stats();
      client.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  Merge(logs, out, &out->open_trips);
  const size_t windows = WindowCount(seconds, kLatencyWindowS);
  const double window_s = seconds / static_cast<double>(windows);
  std::vector<Samples> by_window(windows);
  for (const ClientLog& log : logs) {
    out->open_latency_ms.Append(log.latency_ms);
    out->lateness_ms.Append(log.lateness_ms);
    for (const auto& [due_s, latency_ms] : log.due_latency) {
      const size_t w = static_cast<size_t>(due_s / window_s);
      if (w < windows) by_window[w].Add(latency_ms);
    }
  }
  for (const Samples& window : by_window) {
    if (!window.empty()) out->open_window_p50_ms.Add(window.Median());
  }
}

/// Median wall time (ms) of `reps` calls of `fn` under a span.
template <typename Fn>
double MedianMs(const char* span_name, int reps, const Fn& fn) {
  Samples samples;
  for (int i = 0; i < reps; ++i) {
    Span span(span_name);
    fn();
    samples.Add(span.ElapsedMs());
  }
  return samples.Median();
}

}  // namespace

// For each dataset, the in-process work the daemon and client do for it
// (resolve + ingest, serialize, deserialize) is timed from outside; the
// rest of each round trip is unattributed (IPC, sockets, admission,
// scheduling).
void AttributeServe(const Workload& workload, Rig* rig, Checker* checker,
                    ServeFigures* out) {
  constexpr int kReps = 7;
  const size_t n = workload.datasets.size();
  std::vector<double> inproc(n), serialize(n), deserialize(n);
  for (size_t i = 0; i < n; ++i) {
    const Dataset& d = workload.datasets[i];
    bool ok = true;
    inproc[i] = MedianMs("serve.inproc", kReps, [&] {
      parparaw::LoadOptions load;
      load.header = -1;
      load.collect_statistics = false;
      load.pool = rig->pool.get();
      parparaw::LoadResult resolution;
      auto base = parparaw::BulkLoader::ResolveBaseOptions(d.bytes, false,
                                                           load, &resolution);
      if (!base.ok()) {
        ok = false;
        return;
      }
      parparaw::exec::ExecOptions exec_options;
      exec_options.base = std::move(*base);
      exec_options.partition_size = ExecPartitionBytes();
      parparaw::exec::PipelineExecutor executor;
      auto result = executor.IngestBuffer(d.bytes, exec_options);
      ok = ok && result.ok() && SameTable(result->table, d.parse_ref);
    });
    std::string ipc;
    serialize[i] = MedianMs("columnar.SerializeTable", kReps, [&] {
      auto bytes = parparaw::SerializeTable(d.parse_ref);
      ok = ok && bytes.ok();
      if (bytes.ok()) ipc = std::move(*bytes);
    });
    deserialize[i] = MedianMs("columnar.DeserializeTable", kReps, [&] {
      auto table = parparaw::DeserializeTable(ipc);
      ok = ok && table.ok() && SameTable(*table, d.parse_ref);
    });
    checker->Record(ok, "attribution " + d.label);
  }
  for (const RoundTrip& trip : out->open_trips) {
    switch (trip.kind) {
      case RequestKind::kParse: {
        const size_t i = trip.dataset;
        out->rtt_parse_ms.Add(trip.rtt_ms);
        out->inproc_ms.Add(inproc[i]);
        out->serialize_ms.Add(serialize[i]);
        out->deserialize_ms.Add(deserialize[i]);
        out->unattributed_ms.Add(trip.rtt_ms - inproc[i] - serialize[i] -
                                 deserialize[i]);
        break;
      }
      case RequestKind::kStreamParse:
        out->rtt_stream_ms.Add(trip.rtt_ms);
        break;
      case RequestKind::kQuery:
        out->rtt_query_ms.Add(trip.rtt_ms);
        break;
      case RequestKind::kPing:
        break;
    }
  }
}

std::vector<std::optional<Table>> ColdRoundTrips(const Workload& workload,
                                                 uint16_t port) {
  std::vector<std::optional<Table>> tables;
  RetryingClient client(port, Policy(1));
  for (const Dataset& d : workload.datasets) {
    auto reply = client.Parse(d.bytes, parparaw::serve::RequestOptions{});
    tables.emplace_back();
    if (reply.ok() && !reply->busy) tables.back() = std::move(reply->table);
  }
  client.Close();
  return tables;
}

void RunServeLoops(const Workload& workload, Rig* rig, int nproc,
                   uint64_t seed, int cycle, double closed_s, double open_s,
                   Checker* checker, ServeFigures* out) {
  const uint64_t cycle_seed = seed * 31 + static_cast<uint64_t>(cycle);
  ClosedLoop(workload, rig->port, nproc, cycle_seed, closed_s, checker, out);
  OpenLoop(workload, rig->port, nproc, kOpenLoopRate, cycle_seed, open_s,
           checker, out);
}

}  // namespace perfbench
